// Tests for the Weierstrass baseline's generalized eigenvalues of matrix
// pencils (E, A), including singular-E pencils as produced by descriptor
// systems. The library's regularity screen is tested in test_descriptor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/qz.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::randomMatrix;

TEST(GeneralizedEig, IdentityEReducesToStandard) {
  Matrix a{{1, 0}, {0, -2}};
  GeneralizedEigenvalues ge = generalizedEigenvalues(Matrix::identity(2), a);
  EXPECT_EQ(ge.infiniteCount, 0u);
  ASSERT_EQ(ge.finite.size(), 2u);
  std::vector<double> re{ge.finite[0].real(), ge.finite[1].real()};
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -2.0, 1e-9);
  EXPECT_NEAR(re[1], 1.0, 1e-9);
}

TEST(GeneralizedEig, SingularEGivesInfiniteEigenvalues) {
  // E = diag(1, 0), A = diag(-3, 1): one finite eigenvalue -3, one infinite.
  Matrix e = Matrix::diag({1.0, 0.0});
  Matrix a = Matrix::diag({-3.0, 1.0});
  GeneralizedEigenvalues ge = generalizedEigenvalues(e, a);
  EXPECT_EQ(ge.infiniteCount, 1u);
  ASSERT_EQ(ge.finite.size(), 1u);
  EXPECT_NEAR(ge.finite[0].real(), -3.0, 1e-9);
}

TEST(GeneralizedEig, NilpotentBlockAllInfinite) {
  // E nilpotent (single Jordan block at infinity), A = I: index-2 pencil.
  Matrix e{{0, 1}, {0, 0}};
  Matrix a = Matrix::identity(2);
  GeneralizedEigenvalues ge = generalizedEigenvalues(e, a);
  EXPECT_EQ(ge.infiniteCount, 2u);
  EXPECT_TRUE(ge.finite.empty());
}

TEST(GeneralizedEig, ScalingInvariance) {
  Matrix e = Matrix::identity(3);
  Matrix a{{-1, 1, 0}, {0, -2, 1}, {0, 0, -5}};
  // lambda(2E, A) = lambda(E, A)/2.
  GeneralizedEigenvalues ge = generalizedEigenvalues(2.0 * e, a);
  std::vector<double> re;
  for (auto& l : ge.finite) re.push_back(l.real());
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -2.5, 1e-9);
  EXPECT_NEAR(re[1], -1.0, 1e-9);
  EXPECT_NEAR(re[2], -0.5, 1e-9);
}

TEST(GeneralizedEig, ComplexPairSurvives) {
  Matrix e = Matrix::identity(2);
  Matrix a{{0, 4}, {-4, 0}};  // eigenvalues +/- 4i
  GeneralizedEigenvalues ge = generalizedEigenvalues(e, a);
  ASSERT_EQ(ge.finite.size(), 2u);
  EXPECT_NEAR(std::abs(ge.finite[0].imag()), 4.0, 1e-8);
  EXPECT_NEAR(ge.finite[0].real(), 0.0, 1e-8);
}

TEST(GeneralizedEig, MixedFiniteInfinite) {
  // Block pencil: finite part diag(-1,-2), infinite part E22 = [0 1; 0 0].
  Matrix e = Matrix::zeros(4, 4);
  e(0, 0) = 1.0;
  e(1, 1) = 1.0;
  e(2, 3) = 1.0;
  Matrix a = Matrix::identity(4);
  a(0, 0) = -1.0;
  a(1, 1) = -2.0;
  GeneralizedEigenvalues ge = generalizedEigenvalues(e, a);
  EXPECT_EQ(ge.infiniteCount, 2u);
  ASSERT_EQ(ge.finite.size(), 2u);
  std::vector<double> re{ge.finite[0].real(), ge.finite[1].real()};
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -2.0, 1e-8);
  EXPECT_NEAR(re[1], -1.0, 1e-8);
}

TEST(GeneralizedEig, SingularPencilThrows) {
  // E = A = 0 is a singular pencil: det(A - sE) == 0 identically.
  Matrix z = Matrix::zeros(2, 2);
  EXPECT_THROW(generalizedEigenvalues(z, z), std::runtime_error);
}

TEST(GeneralizedEig, RegularAwayFromTheZeroShift) {
  // A - 0*E = diag(0, -1) is singular, so the first trial shift is
  // rejected and a scaled fallback shift must be taken.
  Matrix e = Matrix::identity(2);
  Matrix a = Matrix::diag({0.0, -1.0});
  GeneralizedEigenvalues ge = generalizedEigenvalues(e, a);
  EXPECT_NE(ge.shiftUsed, 0.0);
  EXPECT_EQ(ge.infiniteCount, 0u);
  ASSERT_EQ(ge.finite.size(), 2u);
  std::vector<double> re;
  for (const auto& l : ge.finite) {
    EXPECT_TRUE(std::isfinite(l.real()));
    EXPECT_EQ(l.imag(), 0.0);
    re.push_back(l.real());
  }
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -1.0, 1e-12);
  EXPECT_NEAR(re[1], 0.0, 1e-12);
}

TEST(GeneralizedEig, FiniteModeCountMatchesDegree) {
  // deg det(-sE + A) with E = diag(1,1,0), A generic invertible: 2.
  Matrix e = Matrix::diag({1.0, 1.0, 0.0});
  Matrix a = randomMatrix(3, 3, 140);
  for (std::size_t i = 0; i < 3; ++i) a(i, i) += 3.0;
  EXPECT_EQ(generalizedEigenvalues(e, a).finite.size(), 2u);
}

TEST(GeneralizedEig, EmptyPencil) {
  GeneralizedEigenvalues ge = generalizedEigenvalues(Matrix{}, Matrix{});
  EXPECT_TRUE(ge.finite.empty());
  EXPECT_EQ(ge.infiniteCount, 0u);
}

}  // namespace
}  // namespace shhpass::linalg
