// Unit tests for the dense matrix core and BLAS-level helpers.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::expectMatrixNear;
using testing::randomMatrix;

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  m(1, 2) = -7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -7.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityDiagZeros) {
  Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  Matrix d = Matrix::diag({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 0.0);
  EXPECT_EQ(Matrix::zeros(2, 5).maxAbs(), 0.0);
}

TEST(Matrix, SymplecticJ) {
  Matrix j = Matrix::symplecticJ(2);
  ASSERT_EQ(j.rows(), 4u);
  // J^T = -J and J^2 = -I.
  EXPECT_TRUE(j.isSkewSymmetric(0.0));
  expectMatrixNear(j * j, -1.0 * Matrix::identity(4), 0.0);
}

TEST(Matrix, ArithmeticAndShapeChecks) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  expectMatrixNear(a + b, Matrix{{6, 8}, {10, 12}}, 0.0);
  expectMatrixNear(b - a, Matrix{{4, 4}, {4, 4}}, 0.0);
  expectMatrixNear(2.0 * a, Matrix{{2, 4}, {6, 8}}, 0.0);
  expectMatrixNear(-a, Matrix{{-1, -2}, {-3, -4}}, 0.0);
  Matrix c(3, 2);
  EXPECT_THROW(a + c, std::invalid_argument);
  EXPECT_THROW(a - c, std::invalid_argument);
}

TEST(Matrix, Product) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  expectMatrixNear(a * b, Matrix{{58, 64}, {139, 154}}, 0.0);
  EXPECT_THROW(b.block(0, 0, 2, 2) * a.block(0, 0, 1, 3),
               std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a = randomMatrix(4, 7, 11);
  expectMatrixNear(a.transposed().transposed(), a, 0.0);
}

TEST(Matrix, BlockGetSet) {
  Matrix a = Matrix::zeros(4, 4);
  Matrix b{{1, 2}, {3, 4}};
  a.setBlock(1, 2, b);
  expectMatrixNear(a.block(1, 2, 2, 2), b, 0.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_THROW(a.block(3, 3, 2, 2), std::invalid_argument);
  EXPECT_THROW(a.setBlock(3, 3, b), std::invalid_argument);
}

TEST(Matrix, RowColExtraction) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  expectMatrixNear(a.row(1), Matrix{{4, 5, 6}}, 0.0);
  expectMatrixNear(a.col(2), Matrix{{3}, {6}}, 0.0);
}

TEST(Matrix, Norms) {
  Matrix a{{1, -2}, {-3, 4}};
  EXPECT_DOUBLE_EQ(a.maxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(a.normFrobenius(), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(a.trace(), 5.0);
}

TEST(Matrix, SymmetryPredicates) {
  Matrix s{{1, 2}, {2, 1}};
  Matrix k{{0, 3}, {-3, 0}};
  EXPECT_TRUE(s.isSymmetric(0.0));
  EXPECT_FALSE(s.isSkewSymmetric(1e-12));
  EXPECT_TRUE(k.isSkewSymmetric(0.0));
  EXPECT_FALSE(k.isSymmetric(1e-12));
  EXPECT_FALSE(Matrix(2, 3).isSymmetric(1.0));
}

TEST(Matrix, ConcatenationAndEmptyEdges) {
  Matrix a{{1}, {2}};
  Matrix b{{3}, {4}};
  expectMatrixNear(hcat(a, b), Matrix{{1, 3}, {2, 4}}, 0.0);
  expectMatrixNear(vcat(a.transposed(), b.transposed()),
                   Matrix{{1, 2}, {3, 4}}, 0.0);
  Matrix empty(2, 0);
  expectMatrixNear(hcat(a, empty), a, 0.0);
  expectMatrixNear(hcat(empty, a), a, 0.0);
  EXPECT_THROW(hcat(a, Matrix(3, 1)), std::invalid_argument);
  EXPECT_THROW(vcat(a, Matrix(1, 2)), std::invalid_argument);
}

TEST(Matrix, StreamOutputDoesNotCrash) {
  std::ostringstream oss;
  oss << Matrix{{1.5, -2.25}, {0.0, 3.0}};
  EXPECT_NE(oss.str().find("1.5"), std::string::npos);
}

TEST(Blas, GemmMatchesOperator) {
  Matrix a = randomMatrix(3, 4, 1);
  Matrix b = randomMatrix(4, 5, 2);
  Matrix c(3, 5);
  gemm(1.0, a, false, b, false, 0.0, c);
  expectMatrixNear(c, a * b, 1e-14);
}

TEST(Blas, GemmTransposeFlags) {
  Matrix a = randomMatrix(4, 3, 3);
  Matrix b = randomMatrix(4, 5, 4);
  expectMatrixNear(atb(a, b), a.transposed() * b, 1e-14);
  Matrix d = randomMatrix(7, 5, 5);
  expectMatrixNear(abt(b, d), b * d.transposed(), 1e-14);
  Matrix f = randomMatrix(6, 4, 9);
  expectMatrixNear(multiply(a, true, f, true),
                   a.transposed() * f.transposed(), 1e-14);
}

TEST(Blas, GemmAccumulates) {
  Matrix a = randomMatrix(2, 2, 6);
  Matrix b = randomMatrix(2, 2, 7);
  Matrix c = randomMatrix(2, 2, 8);
  Matrix expected = 2.0 * (a * b) + 3.0 * c;
  Matrix got = c;
  gemm(2.0, a, false, b, false, 3.0, got);
  expectMatrixNear(got, expected, 1e-13);
}

TEST(Blas, ColumnHelpers) {
  Matrix a{{3, 0}, {4, 1}};
  EXPECT_DOUBLE_EQ(colNorm(a, 0), 5.0);
  EXPECT_DOUBLE_EQ(colNorm(Matrix(3, 2), 1), 0.0);
}

TEST(Blas, SymmetrizeHelpers) {
  Matrix a{{1, 4}, {2, 3}};
  Matrix s = a;
  symmetrize(s);
  EXPECT_TRUE(s.isSymmetric(0.0));
  expectMatrixNear(s, Matrix{{1, 3}, {3, 3}}, 0.0);
  Matrix k = a;
  skewSymmetrize(k);
  EXPECT_TRUE(k.isSkewSymmetric(0.0));
  expectMatrixNear(k, Matrix{{0, 1}, {-1, 0}}, 0.0);
}

}  // namespace
}  // namespace shhpass::linalg
