// Unit tests for LU and Cholesky factorizations and the PSD probe.
#include <gtest/gtest.h>

#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::expectMatrixNear;
using testing::randomMatrix;
using testing::randomSpd;
using testing::randomSymmetric;

TEST(LU, SolvesKnownSystem) {
  Matrix a{{4, 3}, {6, 3}};
  Matrix b{{10}, {12}};
  Matrix x = LU(a).solve(b);
  expectMatrixNear(a * x, b, 1e-12);
}

TEST(LU, SolveMultipleRhs) {
  Matrix a = randomMatrix(6, 6, 21);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 4.0;
  Matrix b = randomMatrix(6, 3, 22);
  Matrix x = LU(a).solve(b);
  expectMatrixNear(a * x, b, 1e-10);
}

TEST(LU, SolveTransposed) {
  Matrix a = randomMatrix(5, 5, 23);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 3.0;
  Matrix b = randomMatrix(5, 2, 24);
  Matrix x = LU(a).solveTransposed(b);
  expectMatrixNear(a.transposed() * x, b, 1e-10);
}

TEST(LU, InverseRoundTrip) {
  Matrix a = randomMatrix(7, 7, 25);
  for (std::size_t i = 0; i < 7; ++i) a(i, i) += 5.0;
  const Matrix inv = LU(a).inverse();
  expectMatrixNear(a * inv, Matrix::identity(7), 1e-10);
  expectMatrixNear(inv * a, Matrix::identity(7), 1e-10);
}

TEST(LU, SingularDetection) {
  Matrix a{{1, 2}, {2, 4}};
  LU lu(a);
  EXPECT_TRUE(lu.isSingular(1e-12));
  EXPECT_THROW(lu.solve(Matrix(2, 1)), std::runtime_error);
}

TEST(LU, NonSquareThrows) {
  EXPECT_THROW(LU(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, FactorsSpd) {
  Matrix a = randomSpd(6, 31);
  Cholesky chol(a);
  ASSERT_TRUE(chol.success());
  const Matrix& l = chol.factor();
  expectMatrixNear(l * l.transposed(), a, 1e-9 * a.maxAbs());
}

TEST(Cholesky, SolveMatchesLu) {
  Matrix a = randomSpd(5, 32);
  Matrix b = randomMatrix(5, 2, 33);
  Cholesky chol(a);
  ASSERT_TRUE(chol.success());
  expectMatrixNear(a * chol.solve(b), b, 1e-8);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 0}, {0, -1}};
  EXPECT_FALSE(Cholesky(a).success());
  EXPECT_THROW(Cholesky(a).solve(Matrix(2, 1)), std::runtime_error);
}

TEST(Psd, AcceptsSpdAndPsd) {
  EXPECT_TRUE(isPositiveSemidefinite(randomSpd(5, 41)));
  // Rank-1 PSD matrix.
  Matrix v = randomMatrix(4, 1, 42);
  EXPECT_TRUE(isPositiveSemidefinite(v * v.transposed()));
  // Zero matrix is PSD; empty matrix is PSD by convention.
  EXPECT_TRUE(isPositiveSemidefinite(Matrix::zeros(3, 3)));
  EXPECT_TRUE(isPositiveSemidefinite(Matrix()));
}

TEST(Psd, RejectsIndefinite) {
  Matrix a = randomSymmetric(5, 43);
  a(0, 0) = -10.0;  // force a negative eigenvalue
  EXPECT_FALSE(isPositiveSemidefinite(a));
  EXPECT_FALSE(isPositiveSemidefinite(Matrix{{-1e-3}}));
}

TEST(Psd, ToleratesTinyNegativePerturbation) {
  Matrix a = Matrix::identity(4);
  a(3, 3) = -1e-14;  // within tolerance of zero
  EXPECT_TRUE(isPositiveSemidefinite(a, 1e-9));
}

}  // namespace
}  // namespace shhpass::linalg
