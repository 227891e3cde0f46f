// Unit and property tests for the SVD: reconstruction, orthogonality, rank,
// kernel/range bases, pseudoinverse. The SVD is the rank oracle for every
// deflation decision in the passivity pipeline, so it is tested heavily.
#include <gtest/gtest.h>

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::expectMatrixNear;
using testing::expectOrthonormalColumns;
using testing::randomMatrix;
using testing::randomRankDeficient;

Matrix reconstruct(const SVD& svd) {
  const auto& s = svd.singularValues();
  Matrix us = svd.u();
  for (std::size_t j = 0; j < s.size() && j < us.cols(); ++j)
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= s[j];
  // Keep only the first s.size() columns of v for the product.
  Matrix vt = svd.v().block(0, 0, svd.v().rows(), s.size()).transposed();
  return us.block(0, 0, us.rows(), s.size()) * vt;
}

TEST(Svd, DiagonalMatrix) {
  SVD svd(Matrix::diag({3.0, 1.0, 2.0}));
  ASSERT_EQ(svd.singularValues().size(), 3u);
  EXPECT_NEAR(svd.singularValues()[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.singularValues()[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.singularValues()[2], 1.0, 1e-12);
}

TEST(Svd, SingularValuesSortedDescending) {
  SVD svd(randomMatrix(7, 5, 71));
  const auto& s = svd.singularValues();
  EXPECT_TRUE(std::is_sorted(s.rbegin(), s.rend()));
  for (double v : s) EXPECT_GE(v, 0.0);
}

TEST(Svd, ReconstructionSquare) {
  Matrix a = randomMatrix(6, 6, 72);
  expectMatrixNear(reconstruct(SVD(a)), a, 1e-11);
}

TEST(Svd, ReconstructionTall) {
  Matrix a = randomMatrix(9, 4, 73);
  SVD svd(a);
  expectMatrixNear(reconstruct(svd), a, 1e-11);
  expectOrthonormalColumns(svd.u());
  expectOrthonormalColumns(svd.v());
}

TEST(Svd, ReconstructionWide) {
  Matrix a = randomMatrix(4, 9, 74);
  SVD svd(a);
  expectMatrixNear(reconstruct(svd), a, 1e-11);
  expectOrthonormalColumns(svd.u());
  expectOrthonormalColumns(svd.v());
}

TEST(Svd, RankDetection) {
  EXPECT_EQ(SVD(randomRankDeficient(8, 8, 3, 75)).rank(), 3u);
  EXPECT_EQ(SVD(randomRankDeficient(5, 9, 2, 76)).rank(), 2u);
  EXPECT_EQ(SVD(randomRankDeficient(9, 5, 4, 77)).rank(), 4u);
  EXPECT_EQ(SVD(Matrix::zeros(4, 6)).rank(), 0u);
  EXPECT_EQ(SVD(Matrix::identity(5)).rank(), 5u);
}

TEST(Svd, NullspaceIsKernel) {
  Matrix a = randomRankDeficient(6, 8, 3, 78);
  SVD svd(a);
  Matrix ns = svd.nullspace();
  EXPECT_EQ(ns.cols(), 5u);
  expectOrthonormalColumns(ns);
  EXPECT_LT((a * ns).maxAbs(), 1e-10);
}

TEST(Svd, NullspaceTallMatrix) {
  Matrix a = randomRankDeficient(8, 5, 2, 79);
  Matrix ns = SVD(a).nullspace();
  EXPECT_EQ(ns.cols(), 3u);
  EXPECT_LT((a * ns).maxAbs(), 1e-10);
}

TEST(Svd, LeftNullspace) {
  Matrix a = randomRankDeficient(8, 5, 2, 80);
  Matrix lns = SVD(a).leftNullspace();
  EXPECT_EQ(lns.cols(), 6u);
  expectOrthonormalColumns(lns);
  EXPECT_LT(atb(lns, a).maxAbs(), 1e-10);
}

TEST(Svd, LeftNullspaceWideMatrix) {
  Matrix a = randomRankDeficient(4, 9, 2, 81);
  Matrix lns = SVD(a).leftNullspace();
  EXPECT_EQ(lns.cols(), 2u);
  EXPECT_LT(atb(lns, a).maxAbs(), 1e-10);
}

TEST(Svd, RangeSpansColumns) {
  Matrix a = randomRankDeficient(7, 6, 4, 82);
  SVD svd(a);
  Matrix q = svd.range();
  EXPECT_EQ(q.cols(), 4u);
  Matrix proj = q * atb(q, a);
  expectMatrixNear(proj, a, 1e-10);
}

TEST(Svd, FullRankNullspaceEmpty) {
  Matrix a = randomMatrix(5, 5, 83);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 4.0;
  EXPECT_EQ(SVD(a).nullspace().cols(), 0u);
  EXPECT_EQ(SVD(a).leftNullspace().cols(), 0u);
}

TEST(Svd, PseudoInverseMoorePenrose) {
  Matrix a = randomRankDeficient(6, 4, 2, 84);
  Matrix x = SVD(a).pseudoInverse();
  // Moore-Penrose axioms: A X A = A, X A X = X, (AX)^T = AX, (XA)^T = XA.
  expectMatrixNear(a * x * a, a, 1e-9);
  expectMatrixNear(x * a * x, x, 1e-9);
  EXPECT_TRUE((a * x).isSymmetric(1e-9));
  EXPECT_TRUE((x * a).isSymmetric(1e-9));
}

TEST(Svd, PseudoInverseOfInvertibleIsInverse) {
  Matrix a = randomMatrix(4, 4, 85);
  for (std::size_t i = 0; i < 4; ++i) a(i, i) += 3.0;
  expectMatrixNear(a * SVD(a).pseudoInverse(), Matrix::identity(4), 1e-9);
}

TEST(Svd, CondOfOrthogonalIsOne) {
  Matrix q = SVD(randomMatrix(5, 5, 86)).u();
  EXPECT_NEAR(SVD(q).cond(), 1.0, 1e-8);
}

TEST(Svd, CondHugeForNumericallySingular) {
  // A rank-2 product has trailing singular values at round-off level, so the
  // condition number is astronomically large (or infinite if exactly zero).
  const double c = SVD(randomRankDeficient(4, 4, 2, 87)).cond();
  EXPECT_TRUE(std::isinf(c) || c > 1e12);
}

TEST(Svd, VectorShapes) {
  SVD col(randomMatrix(6, 1, 88));
  EXPECT_EQ(col.singularValues().size(), 1u);
  SVD row(randomMatrix(1, 6, 89));
  EXPECT_EQ(row.singularValues().size(), 1u);
  EXPECT_NEAR(col.singularValues()[0],
              randomMatrix(6, 1, 88).normFrobenius(), 1e-12);
}

TEST(Svd, NullspaceOfRankOneMatrix) {
  Matrix a{{1, 1, 0}, {0, 0, 0}, {1, 1, 0}};
  Matrix k = SVD(a).nullspace();
  EXPECT_EQ(k.cols(), 2u);
  EXPECT_LT((a * k).maxAbs(), 1e-12);
}

// Property sweep: reconstruction and orthogonality across shapes.
class SvdShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, unsigned>> {};

TEST_P(SvdShapeSweep, ReconstructsAndOrthogonal) {
  const auto [m, n, seed] = GetParam();
  Matrix a = randomMatrix(m, n, seed);
  SVD svd(a);
  expectMatrixNear(reconstruct(svd), a, 1e-10 * std::max(1.0, a.maxAbs()));
  expectOrthonormalColumns(svd.u(), 1e-9);
  expectOrthonormalColumns(svd.v(), 1e-9);
  EXPECT_EQ(svd.rank(), std::min<std::size_t>(m, n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 90), std::make_tuple(2, 7, 91),
                      std::make_tuple(7, 2, 92), std::make_tuple(10, 10, 93),
                      std::make_tuple(13, 11, 94), std::make_tuple(11, 13, 95),
                      std::make_tuple(20, 3, 96), std::make_tuple(3, 20, 97),
                      std::make_tuple(17, 17, 98)));

}  // namespace
}  // namespace shhpass::linalg
