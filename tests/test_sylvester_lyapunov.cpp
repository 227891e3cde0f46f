// Tests for the Bartels-Stewart Sylvester and Lyapunov solvers, including
// the blocked quasi-triangular kernel against the one-block-at-a-time
// back-substitutions it replaced (decoupling_oracle.hpp).
#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <vector>

#include "control/lyapunov.hpp"
#include "control/sylvester.hpp"
#include "linalg/blas.hpp"
#include "linalg/schur.hpp"
#include "decoupling_oracle.hpp"
#include "linalg/symmetric_eig.hpp"
#include "test_support.hpp"

namespace shhpass::control {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;
using testing::randomMatrix;
using testing::randomStable;
using testing::randomSymmetric;

TEST(Sylvester, SolvesKnownSmall) {
  Matrix a{{1, 0}, {0, 2}};
  Matrix b{{3, 0}, {0, 4}};
  // With diagonal coefficients, x_ij = c_ij / (a_ii + b_jj).
  Matrix c{{4, 5}, {5, 6}};
  Matrix x = solveSylvester(a, b, c);
  expectMatrixNear(x, Matrix{{1, 1}, {1, 1}}, 1e-12);
}

TEST(Sylvester, ResidualRandomSquare) {
  Matrix a = randomStable(8, 201);
  Matrix b = randomStable(8, 202);
  Matrix c = randomMatrix(8, 8, 203);
  Matrix x = solveSylvester(a, b, c);
  expectMatrixNear(a * x + x * b, c, 1e-8 * std::max(1.0, c.maxAbs()));
}

TEST(Sylvester, RectangularUnknown) {
  Matrix a = randomStable(6, 204);
  Matrix b = randomStable(3, 205);
  Matrix c = randomMatrix(6, 3, 206);
  Matrix x = solveSylvester(a, b, c);
  EXPECT_EQ(x.rows(), 6u);
  EXPECT_EQ(x.cols(), 3u);
  expectMatrixNear(a * x + x * b, c, 1e-9);
}

TEST(Sylvester, ComplexSpectraCoefficients) {
  // Rotation-heavy coefficients exercise the 2x2-block path.
  Matrix a{{-1, 5}, {-5, -1}};
  Matrix b{{-2, 7, 0}, {-7, -2, 0}, {0, 0, -3}};
  Matrix c = randomMatrix(2, 3, 207);
  Matrix x = solveSylvester(a, b, c);
  expectMatrixNear(a * x + x * b, c, 1e-10);
}

TEST(Sylvester, SingularWhenSpectraOverlap) {
  // spec(A) = {1}, spec(-B) = {1}: singular equation.
  Matrix a{{1.0}};
  Matrix b{{-1.0}};
  Matrix c{{1.0}};
  EXPECT_THROW(solveSylvester(a, b, c), std::runtime_error);
}

TEST(Sylvester, QuasiTriangularDirect) {
  Matrix s = linalg::realSchur(randomStable(7, 208)).t;
  Matrix t = linalg::realSchur(randomStable(5, 209)).t;
  Matrix f = randomMatrix(7, 5, 210);
  Matrix y = solveSylvesterQuasiTriangular(s, false, t, false, f);
  expectMatrixNear(s * y + y * t, f, 1e-9);
}

TEST(Sylvester, EmptyDimensions) {
  Matrix x = solveSylvester(Matrix{}, Matrix{}, Matrix{});
  EXPECT_TRUE(x.empty());
}

TEST(Lyapunov, QuasiTriangularFastPathsMatchGeneralSolver) {
  // Coefficients that are a real Schur factor (or the transpose of one)
  // take the back-substitution-only fast paths; the solutions must agree
  // with the general Bartels-Stewart path to solver accuracy.
  Matrix a = randomStable(12, 230);
  linalg::RealSchurResult rs = linalg::realSchur(a);
  Matrix q = randomSymmetric(12, 231);
  ASSERT_TRUE(isQuasiTriangular(rs.t));
  ASSERT_FALSE(isQuasiTriangular(Matrix(rs.t.transposed())));
  const double scale = std::max(1.0, q.maxAbs());
  // Upper orientation: S Y + Y S^T + Q = 0.
  Matrix yUpper = solveLyapunov(rs.t, q);
  expectMatrixNear(rs.t * yUpper + linalg::abt(yUpper, rs.t) + q,
                   Matrix(12, 12), 1e-9 * scale);
  // Lower orientation (the observability-Gramian shape):
  // S^T Y + Y S + Q = 0.
  Matrix st = rs.t.transposed();
  Matrix yLower = solveLyapunov(st, q);
  expectMatrixNear(st * yLower + yLower * rs.t + q, Matrix(12, 12),
                   1e-9 * scale);
  // Both agree with the general solver run on the same equations.
  expectMatrixNear(yUpper, solveSylvester(rs.t, st, -1.0 * q),
                   1e-8 * std::max(1.0, yUpper.maxAbs()));
  expectMatrixNear(yLower, solveSylvester(st, rs.t, -1.0 * q),
                   1e-8 * std::max(1.0, yLower.maxAbs()));
}

TEST(Lyapunov, ResidualAndSymmetry) {
  Matrix a = randomStable(9, 211);
  Matrix q = randomSymmetric(9, 212);
  Matrix y = solveLyapunov(a, q);
  EXPECT_TRUE(y.isSymmetric(1e-9 * std::max(1.0, y.maxAbs())));
  Matrix resid = a * y + y * a.transposed() + q;
  EXPECT_LT(resid.maxAbs(), 1e-8 * std::max(1.0, q.maxAbs()));
}

TEST(Lyapunov, GramianIsPsdForStableSystem) {
  // Controllability Gramian: A W + W A^T + B B^T = 0 with A stable => W >= 0.
  Matrix a = randomStable(6, 213);
  Matrix b = randomMatrix(6, 2, 214);
  Matrix w = solveLyapunov(a, linalg::abt(b, b));
  linalg::SymmetricEig eig(w, false);
  EXPECT_GE(eig.eigenvalues().front(), -1e-10);
}

TEST(Lyapunov, KnownScalar) {
  // a y + y a + q = 0 with a = -2, q = 8 -> y = 2.
  Matrix y = solveLyapunov(Matrix{{-2.0}}, Matrix{{8.0}});
  EXPECT_NEAR(y(0, 0), 2.0, 1e-12);
}

// Quasi-upper-triangular n x n matrix with 2x2 complex-pair blocks
// starting at `pairStarts` (the rest 1x1) and diagonal real parts of sign
// `sign`, random coupling above the blocks.
Matrix quasiTriangular(std::size_t n, const std::vector<std::size_t>& pairStarts,
                       unsigned seed, double sign = -1.0) {
  testing::Xorshift rng(seed);
  Matrix s(n, n);
  std::vector<std::size_t> blockEnd(n);
  for (std::size_t i = 0; i < n;) {
    const bool pair =
        i + 1 < n && std::find(pairStarts.begin(), pairStarts.end(), i) !=
                         pairStarts.end();
    const double re = sign * rng.uniform(0.2, 3.0);
    s(i, i) = re;
    if (pair) {
      const double im = rng.uniform(0.5, 2.0);
      s(i + 1, i + 1) = re;
      s(i, i + 1) = im * 1.3;
      s(i + 1, i) = -im / 1.3;
      blockEnd[i] = blockEnd[i + 1] = i + 2;
      i += 2;
    } else {
      blockEnd[i] = i + 1;
      i += 1;
    }
  }
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = blockEnd[r]; c < n; ++c)
      s(r, c) = 0.5 * rng.uniform(-1.0, 1.0);
  return s;
}

// 2x2 blocks every few rows, including ones straddling the panel cuts at
// multiples of kSylvesterPanel.
std::vector<std::size_t> pairLayout(std::size_t n) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 1; i + 1 < n; i += 5) starts.push_back(i);
  for (std::size_t cut = kSylvesterPanel - 1; cut + 1 < n;
       cut += kSylvesterPanel)
    starts.push_back(cut);
  return starts;
}

double relDiff(const Matrix& x, const Matrix& ref) {
  return (x - ref).maxAbs() / std::max(1.0, ref.maxAbs());
}

// Normwise backward error of a solution y of op(A) Y + Y op(B) = F whose
// left-hand side evaluates to `lhs`.
double backwardError(const Matrix& lhs, const Matrix& f, const Matrix& a,
                     const Matrix& b, const Matrix& y) {
  return (lhs - f).maxAbs() /
         ((a.normFrobenius() + b.normFrobenius()) * y.maxAbs() + f.maxAbs());
}

TEST(SylvesterKernel, MatchesOracleInEveryOrientation) {
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t n : {1u, 2u, 5u, 63u, 64u, 65u, 66u, 129u, 200u}) {
    SCOPED_TRACE(n);
    const unsigned seed = 8000 + static_cast<unsigned>(n);
    const Matrix s = quasiTriangular(n, pairLayout(n), seed);
    const std::size_t m = n / 2 + 3;  // rectangular unknown for S Y + Y T
    const Matrix t = quasiTriangular(m, pairLayout(m), seed + 1);
    const Matrix fRect = randomMatrix(n, m, seed + 2);
    const Matrix f = randomMatrix(n, n, seed + 3);
    const double tol = 100.0 * static_cast<double>(n) * eps;

    const Matrix y1 = solveSylvesterQuasiTriangular(s, false, t, false, fRect);
    EXPECT_LE(relDiff(y1, oracle::solveSylvesterBackSubstitution(s, t, fRect)),
              tol);
    EXPECT_LE(backwardError(s * y1 + y1 * t, fRect, s, t, y1), tol);

    const Matrix y2 = solveSylvesterQuasiTriangular(s, false, s, true, f);
    EXPECT_LE(
        relDiff(y2, oracle::solveSylvesterBackSubstitutionTransposedRight(s, f)),
        tol);
    EXPECT_LE(backwardError(s * y2 + linalg::abt(y2, s), f, s, s, y2), tol);

    const Matrix y3 = solveSylvesterQuasiTriangular(s, true, s, false, f);
    EXPECT_LE(
        relDiff(y3, oracle::solveSylvesterBackSubstitutionTransposedLeft(s, f)),
        tol);
    EXPECT_LE(backwardError(linalg::atb(s, y3) + y3 * s, f, s, s, y3), tol);
  }
}

TEST(SylvesterKernel, SingularBlockPairThrows) {
  // spec(S) holds 0.5 at row 100 and -0.5 at row 3: S Y + Y S^T and
  // S^T Y + Y S are singular through a block pair deep inside the blocked
  // sweep, and S Y + Y T with spec(T) holding -0.5 at row 70 likewise.
  const std::size_t n = 150;
  Matrix s = quasiTriangular(n, pairLayout(n), 8100);
  ASSERT_EQ(s(101, 100), 0.0);
  ASSERT_EQ(s(100, 99), 0.0);
  s(100, 100) = 0.5;
  ASSERT_EQ(s(4, 3), 0.0);
  ASSERT_EQ(s(3, 2), 0.0);
  s(3, 3) = -0.5;
  const Matrix f = randomMatrix(n, n, 8101);
  EXPECT_THROW(solveSylvesterQuasiTriangular(s, false, s, true, f),
               std::runtime_error);
  EXPECT_THROW(solveSylvesterQuasiTriangular(s, true, s, false, f),
               std::runtime_error);
  Matrix t = quasiTriangular(n, pairLayout(n), 8102, /*sign=*/1.0);
  ASSERT_EQ(t(71, 70), 0.0);
  ASSERT_EQ(t(70, 69), 0.0);
  t(70, 70) = -0.5;
  EXPECT_THROW(solveSylvesterQuasiTriangular(s, false, t, false, f),
               std::runtime_error);
  EXPECT_THROW(solveSylvesterQuasiTriangular(s, false, t, false,
                                             randomMatrix(n, n - 1, 8103)),
               std::invalid_argument);
}

TEST(Lyapunov, BitwiseEqualAcrossGemmThreads) {
  // Order 400: the later column-panel updates (400 x 64 x >= 336) exceed
  // the threaded gemm floor and fan out over the pool.
  const std::size_t n = 400;
  const Matrix s = quasiTriangular(n, pairLayout(n), 8200);
  const Matrix q = randomSymmetric(n, 8201);
  const std::size_t before = linalg::gemmThreads();
  linalg::setGemmThreads(1);
  const Matrix serial = solveLyapunov(s, q);
  const Matrix serialT = solveLyapunov(s.transposed(), q);
  linalg::setGemmThreads(3);
  const Matrix threaded = solveLyapunov(s, q);
  const Matrix threadedT = solveLyapunov(s.transposed(), q);
  linalg::setGemmThreads(before);
  EXPECT_TRUE(serial.approxEqual(threaded, 0.0));
  EXPECT_TRUE(serialT.approxEqual(threadedT, 0.0));
}

}  // namespace
}  // namespace shhpass::control
