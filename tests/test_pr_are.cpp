// Tests for the regular-system positive-realness test and the ARE solvers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "control/are.hpp"
#include "control/pr_test.hpp"
#include "control/sylvester.hpp"
#include "ds/descriptor.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/schur.hpp"
#include "test_support.hpp"

namespace shhpass::control {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;
using testing::randomMatrix;
using testing::randomStable;

// A canonical passive RC one-port: G(s) = 1/(s+1) + r0.
struct Rc1 {
  Matrix a{{-1.0}};
  Matrix b{{1.0}};
  Matrix c{{1.0}};
  Matrix d{{0.5}};
};

TEST(PrTest, PassiveFirstOrderIsPr) {
  Rc1 sys;
  PrTestResult r = testPositiveRealProper(sys.a, sys.b, sys.c, sys.d);
  EXPECT_TRUE(r.stable);
  EXPECT_TRUE(r.positiveReal);
  EXPECT_TRUE(r.usedHamiltonian);
}

TEST(PrTest, NegatedSystemIsNotPr) {
  Rc1 sys;
  PrTestResult r =
      testPositiveRealProper(sys.a, sys.b, -1.0 * sys.c, -1.0 * sys.d);
  EXPECT_FALSE(r.positiveReal);
}

TEST(PrTest, UnstableSystemFails) {
  PrTestResult r = testPositiveRealProper(Matrix{{1.0}}, Matrix{{1.0}},
                                          Matrix{{1.0}}, Matrix{{1.0}});
  EXPECT_FALSE(r.stable);
  EXPECT_FALSE(r.positiveReal);
}

TEST(PrTest, IndefiniteFeedthroughFails) {
  // D + D^T indefinite => G(j inf) + G^* not PSD => not PR.
  Matrix a = randomStable(3, 401);
  Matrix b = randomMatrix(3, 2, 402);
  Matrix c = randomMatrix(2, 3, 403);
  Matrix d{{-1.0, 0.0}, {0.0, 1.0}};
  EXPECT_FALSE(testPositiveRealProper(a, b, c, d).positiveReal);
}

TEST(PrTest, StaticSystem) {
  Matrix empty;
  EXPECT_TRUE(testPositiveRealProper(empty, Matrix(0, 1), Matrix(1, 0),
                                     Matrix{{2.0}})
                  .positiveReal);
  EXPECT_FALSE(testPositiveRealProper(empty, Matrix(0, 1), Matrix(1, 0),
                                      Matrix{{-2.0}})
                   .positiveReal);
}

TEST(PrTest, LosslessLcTankViaSampling) {
  // G(s) = s/(s^2+1) is lossless positive real but not stable in the strict
  // Hurwitz sense (poles on the axis) — our test requires stability, so it
  // reports failure through the stability gate. Shift the poles slightly:
  // G(s) = s / (s^2 + 0.01 s + 1) is PR with D = 0 (singular R path).
  Matrix a{{-0.01, -1.0}, {1.0, 0.0}};
  Matrix b{{1.0}, {0.0}};
  Matrix c{{1.0, 0.0}};
  Matrix d{{0.0}};
  PrTestResult r = testPositiveRealProper(a, b, c, d);
  EXPECT_TRUE(r.stable);
  EXPECT_TRUE(r.usedSampling);
  EXPECT_TRUE(r.positiveReal);
}

TEST(PrTest, BandStopNegativeRealPartDetected) {
  // G(s) = (s^2 - s + 1)/(s^2 + s + 1) has |G| = 1 but Re G(jw) < 0 near
  // w = 1 (an all-pass-like non-PR example); D = 1 so R nonsingular.
  Matrix a{{-1.0, -1.0}, {1.0, 0.0}};
  Matrix b{{1.0}, {0.0}};
  Matrix c{{-2.0, 0.0}};
  Matrix d{{1.0}};
  PrTestResult r = testPositiveRealProper(a, b, c, d);
  EXPECT_TRUE(r.stable);
  EXPECT_FALSE(r.positiveReal);
}

TEST(PopovEigenvalue, MatchesHandComputation) {
  // G(s) = 1/(s+1): Re G(jw) = 1/(1+w^2); lambda_min(G+G^*) = 2/(1+w^2).
  Rc1 sys;
  const double at0 = popovMinEigenvalue(sys.a, sys.b, sys.c, sys.d, 0.0);
  EXPECT_NEAR(at0, 2.0 * (0.5 + 1.0), 1e-10);
  const double at1 = popovMinEigenvalue(sys.a, sys.b, sys.c, sys.d, 1.0);
  EXPECT_NEAR(at1, 2.0 * (0.5 + 0.5), 1e-10);
}

// One diagonal block of a quasi-triangular test matrix: a real pole
// `re` when im == 0, else the pair re +- j*im as [[re, s*im], [-im/s, re]]
// (s != 1 skews the block so both pivot orders of its 2x2 solve occur).
struct PoleBlock {
  double re, im, s;
};

// Quasi-triangular T with the given diagonal blocks and a seeded
// strictly-upper fill of size <= 0.5.
Matrix quasiTriangular(const std::vector<PoleBlock>& blocks, unsigned seed) {
  std::size_t n = 0;
  for (const PoleBlock& p : blocks) n += p.im == 0.0 ? 1 : 2;
  Matrix t = 0.5 * randomMatrix(n, n, seed);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) t(i, j) = 0.0;
  std::size_t k = 0;
  for (const PoleBlock& p : blocks) {
    t(k, k) = p.re;
    if (p.im == 0.0) {
      ++k;
      continue;
    }
    t(k, k + 1) = p.s * p.im;
    t(k + 1, k) = -p.im / p.s;
    t(k + 1, k + 1) = p.re;
    k += 2;
  }
  return t;
}

ds::DescriptorSystem withIdentityE(const Matrix& a, const Matrix& b,
                                   const Matrix& c, const Matrix& d) {
  ds::DescriptorSystem sys;
  sys.e = Matrix::identity(a.rows());
  sys.a = a;
  sys.b = b;
  sys.c = c;
  sys.d = d;
  return sys;
}

TEST(PopovEvaluator, MatchesDescriptorOracleOnSchurBlocks) {
  // 1x1 and 2x2 blocks in both orders; the 2x2 skews put the larger
  // first-column entry of jwI - T_kk on either row at w = |Im lambda|.
  const std::vector<PoleBlock> blocks = {{-0.5, 0.0, 1.0},
                                         {-0.2, 3.0, 4.0},
                                         {-1.5, 0.0, 1.0},
                                         {-0.05, 0.7, 0.25},
                                         {-2.0, 0.0, 1.0},
                                         {-0.3, 12.0, 1.0}};
  const Matrix t = quasiTriangular(blocks, 611);
  const std::size_t n = t.rows();
  ASSERT_TRUE(isQuasiTriangular(t));
  // The same system in dense coordinates A = Q T Q^T exercises the
  // evaluator's own Schur factorization.
  const Matrix q = linalg::QR(randomMatrix(n, n, 612)).fullQ();
  const Matrix aDense = q * linalg::abt(t, q);
  ASSERT_FALSE(isQuasiTriangular(aDense));

  std::vector<double> omegas = {0.0};
  for (int k = -3; k <= 3; ++k) omegas.push_back(std::pow(10.0, k));
  for (const PoleBlock& p : blocks)
    if (p.im != 0.0) omegas.push_back(p.im);
  for (std::size_t m = 1; m <= 3; ++m) {
    const Matrix b = randomMatrix(n, m, 620 + m);
    const Matrix c = randomMatrix(m, n, 630 + m);
    const Matrix d = randomMatrix(m, m, 640 + m);
    const ds::DescriptorSystem oracle = withIdentityE(t, b, c, d);
    const double tol =
        1e-10 *
        std::max(1.0, ds::evalTransfer(oracle, 0.0, 0.0).re.normFrobenius());
    const Matrix bDense = q * b;
    const Matrix cDense = linalg::abt(c, q);
    const PopovEvaluator schur(t, b, c, d);
    const PopovEvaluator dense(aDense, bDense, cDense, d);
    for (double w : omegas) {
      const double ref = ds::popovMinEigenvalueDs(oracle, w);
      EXPECT_NEAR(schur.minEigenvalue(w), ref, tol) << "m=" << m << " w=" << w;
      EXPECT_NEAR(dense.minEigenvalue(w), ref, tol) << "m=" << m << " w=" << w;
      EXPECT_NEAR(popovMinEigenvalue(t, b, c, d, w), ref, tol)
          << "m=" << m << " w=" << w;
    }
  }
}

TEST(PopovEvaluator, MatchesDescriptorOracleOnRandomStable) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    const std::size_t n = 4 + 3 * seed, m = 1 + seed % 3;
    const Matrix a = randomStable(n, 650 + seed);
    const Matrix b = randomMatrix(n, m, 660 + seed);
    const Matrix c = randomMatrix(m, n, 670 + seed);
    const Matrix d = randomMatrix(m, m, 680 + seed);
    const ds::DescriptorSystem oracle = withIdentityE(a, b, c, d);
    const double tol =
        1e-10 *
        std::max(1.0, ds::evalTransfer(oracle, 0.0, 0.0).re.normFrobenius());
    const PopovEvaluator popov(a, b, c, d);
    for (double w : {0.0, 1e-3, 0.1, 1.0, 10.0, 1e3})
      EXPECT_NEAR(popov.minEigenvalue(w), ds::popovMinEigenvalueDs(oracle, w),
                  tol)
          << "seed=" << seed << " w=" << w;
  }
}

TEST(PrTest, DenseAMatchesItsSchurForm) {
  // D = 0 takes the sampling path. G = B^T (sI - A)^{-1} B with A + A^T < 0
  // is positive real; flipping the sign of C makes it not.
  for (unsigned seed = 0; seed < 4; ++seed) {
    const std::size_t n = 6 + 5 * seed, m = 1 + seed % 3;
    const Matrix a = randomStable(n, 700 + seed);
    const Matrix b = randomMatrix(n, m, 710 + seed);
    const Matrix d(m, m);
    const linalg::RealSchurResult rs = linalg::realSchur(a);
    ASSERT_TRUE(isQuasiTriangular(rs.t));
    ASSERT_FALSE(isQuasiTriangular(a));
    const Matrix bt = linalg::atb(rs.q, b);
    for (double sign : {1.0, -1.0}) {
      const Matrix c = sign * b.transposed();
      const PrTestResult dense = testPositiveRealProper(a, b, c, d);
      const PrTestResult schur = testPositiveRealProper(rs.t, bt, c * rs.q, d);
      ASSERT_TRUE(dense.usedSampling) << "seed=" << seed;
      ASSERT_TRUE(schur.usedSampling) << "seed=" << seed;
      EXPECT_EQ(dense.positiveReal, sign > 0.0) << "seed=" << seed;
      EXPECT_EQ(schur.positiveReal, dense.positiveReal) << "seed=" << seed;
      // The sweep grid is scaled by ||A||_F, which the similarity keeps
      // up to roundoff.
      EXPECT_NEAR(schur.worstFrequency, dense.worstFrequency,
                  1e-12 * std::max(1.0, dense.worstFrequency))
          << "seed=" << seed;
      EXPECT_NEAR(schur.worstEigenvalue, dense.worstEigenvalue,
                  1e-10 * std::max(1.0, std::abs(dense.worstEigenvalue)))
          << "seed=" << seed;
    }
  }
}

TEST(Care, SolvesKnownScalar) {
  // a=1? use: A^T X + X A - X G X + Q = 0 with A=-1, G=1, Q=3:
  // -2x - x^2 + 3 = 0 -> x = 1 (stabilizing).
  AreResult r = solveCare(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{3.0}});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.x(0, 0), 1.0, 1e-10);
}

TEST(Care, ResidualRandom) {
  const std::size_t n = 5;
  Matrix a = randomStable(n, 404);
  Matrix b = randomMatrix(n, 2, 405);
  Matrix g = linalg::abt(b, b);
  Matrix cm = randomMatrix(2, n, 406);
  Matrix q = linalg::atb(cm, cm);
  AreResult r = solveCare(a, g, q);
  ASSERT_TRUE(r.ok);
  Matrix resid =
      linalg::atb(a, r.x) + r.x * a - r.x * g * r.x + q;
  EXPECT_LT(resid.maxAbs(), 1e-7 * std::max(1.0, q.maxAbs()));
  EXPECT_TRUE(r.x.isSymmetric(1e-9 * std::max(1.0, r.x.maxAbs())));
}

TEST(PositiveRealAre, ResidualForPassiveSystem) {
  Rc1 sys;
  AreResult r = solvePositiveRealAre(sys.a, sys.b, sys.c, sys.d);
  ASSERT_TRUE(r.ok);
  // Check Eq. (5) residual directly.
  Matrix rmat = sys.d + sys.d.transposed();
  Matrix term = (r.x * sys.b - sys.c.transposed());
  Matrix resid = linalg::atb(sys.a, r.x) + r.x * sys.a +
                 term * linalg::solve(rmat, (sys.b.transposed() * r.x -
                                             sys.c));
  EXPECT_LT(resid.maxAbs(), 1e-9);
  // Stabilizing solution of the PR Riccati is PSD for passive systems.
  EXPECT_TRUE(linalg::isPositiveSemidefinite(r.x));
}

TEST(PositiveRealAre, FailsForNonPassive) {
  Rc1 sys;
  AreResult r =
      solvePositiveRealAre(sys.a, sys.b, -1.0 * sys.c, Matrix{{0.1}});
  EXPECT_FALSE(r.ok);
}

TEST(PositiveRealAre, SingularRThrows) {
  Rc1 sys;
  EXPECT_THROW(solvePositiveRealAre(sys.a, sys.b, sys.c, Matrix{{0.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace shhpass::control
