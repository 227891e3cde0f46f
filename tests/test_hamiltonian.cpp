// Tests for Hamiltonian structure predicates, the imaginary-axis cut, and
// the stable invariant subspace behind the Eq.-22 split
// (shh::decoupleHamiltonian).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "control/hamiltonian.hpp"
#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"
#include "shh/stable_subspace.hpp"
#include "test_support.hpp"

namespace shhpass::control {
namespace {

using linalg::Matrix;
using shh::decoupleHamiltonian;
using shh::HamiltonianDecoupling;
using testing::expectMatrixNear;
using testing::randomMatrix;
using testing::randomStable;
using testing::randomSymmetric;

Matrix randomHamiltonian(std::size_t n, unsigned seed) {
  return makeHamiltonian(randomMatrix(n, n, seed),
                         randomSymmetric(n, seed + 1),
                         randomSymmetric(n, seed + 2));
}

TEST(HamiltonianStructure, MakeAndDetect) {
  Matrix h = randomHamiltonian(4, 301);
  EXPECT_TRUE(isHamiltonian(h));
  EXPECT_FALSE(isSkewHamiltonian(h));
  // Perturbing one off-diagonal entry of the R block breaks the structure.
  h(0, 5) += 1.0;
  EXPECT_FALSE(isHamiltonian(h));
}

TEST(HamiltonianStructure, SkewHamiltonianDetect) {
  // W = [A R; Q A^T] with R, Q skew-symmetric.
  const std::size_t n = 3;
  Matrix a = randomMatrix(n, n, 302);
  Matrix r = randomMatrix(n, n, 303);
  Matrix rSkew = r - r.transposed();
  Matrix q = randomMatrix(n, n, 304);
  Matrix qSkew = q - q.transposed();
  Matrix w(2 * n, 2 * n);
  w.setBlock(0, 0, a);
  w.setBlock(0, n, rSkew);
  w.setBlock(n, 0, qSkew);
  w.setBlock(n, n, a.transposed());
  EXPECT_TRUE(isSkewHamiltonian(w));
  EXPECT_FALSE(isHamiltonian(w));
}

TEST(HamiltonianStructure, OddSizeRejected) {
  EXPECT_FALSE(isHamiltonian(Matrix::identity(3)));
  EXPECT_FALSE(isSkewHamiltonian(Matrix::identity(3)));
  // Identity of even size IS skew-Hamiltonian (J I = J skew) but not
  // Hamiltonian.
  EXPECT_TRUE(isSkewHamiltonian(Matrix::identity(4)));
  EXPECT_FALSE(isHamiltonian(Matrix::identity(4)));
}

TEST(HamiltonianSpectrum, QuadrupletSymmetry) {
  Matrix h = randomHamiltonian(5, 305);
  auto eig = linalg::eigenvalues(h);
  // For every eigenvalue lambda, -lambda is also an eigenvalue.
  for (const auto& l : eig) {
    bool foundMirror = false;
    for (const auto& m : eig)
      if (std::abs(m.real() + l.real()) < 1e-7 &&
          std::abs(std::abs(m.imag()) - std::abs(l.imag())) < 1e-7) {
        foundMirror = true;
        break;
      }
    EXPECT_TRUE(foundMirror) << "no mirror for " << l.real();
  }
}

TEST(StableSubspaceTest, RiccatiStyleHamiltonian) {
  // H = [A -BB^T; -C^TC -A^T] with A stable has a clean spectral split.
  const std::size_t n = 4;
  Matrix a = randomStable(n, 306);
  Matrix b = randomMatrix(n, 2, 307);
  Matrix c = randomMatrix(2, n, 308);
  Matrix h = makeHamiltonian(a, -1.0 * linalg::abt(b, b),
                             -1.0 * linalg::atb(c, c));
  HamiltonianDecoupling dec = decoupleHamiltonian(h);
  ASSERT_TRUE(dec.ok);
  // Z1 = [X1 -X2; X2 X1] with the stable basis [X1; X2] in its first np
  // columns.
  ASSERT_EQ(dec.z1.rows(), 2 * n);
  EXPECT_EQ(dec.lambda.rows(), n);
  // Invariance: H [X1; X2] = [X1; X2] Lambda.
  Matrix x = dec.z1.block(0, 0, 2 * n, n);
  expectMatrixNear(h * x, x * dec.lambda, 1e-8);
  // Lambda stable.
  for (const auto& l : linalg::quasiTriangularEigenvalues(dec.lambda))
    EXPECT_LT(l.real(), 0.0);
}

TEST(StableSubspaceTest, SymplecticPropertyX1tX2Symmetric) {
  // The paper notes X1^T X2 = X2^T X1 for the stable subspace basis.
  const std::size_t n = 5;
  Matrix a = randomStable(n, 309);
  Matrix b = randomMatrix(n, 2, 310);
  Matrix c = randomMatrix(2, n, 311);
  Matrix h = makeHamiltonian(a, -1.0 * linalg::abt(b, b),
                             -1.0 * linalg::atb(c, c));
  HamiltonianDecoupling dec = decoupleHamiltonian(h);
  ASSERT_TRUE(dec.ok);
  Matrix x1tx2 =
      linalg::atb(dec.z1.block(0, 0, n, n), dec.z1.block(n, 0, n, n));
  EXPECT_TRUE(x1tx2.isSymmetric(1e-8 * std::max(1.0, x1tx2.maxAbs())));
}

TEST(StableSubspaceTest, FailsOnImaginaryAxisEigenvalues) {
  // H = [0 1; -1 0] (J itself) has eigenvalues +/- i.
  Matrix h = Matrix::symplecticJ(1);
  HamiltonianDecoupling dec = decoupleHamiltonian(h);
  EXPECT_FALSE(dec.ok);
}

TEST(ImaginaryAxisDetection, DetectsAndClears) {
  Matrix h = Matrix::symplecticJ(2);  // eigenvalues +/- i (twice)
  EXPECT_TRUE(hasImaginaryAxisEigenvalue(h));
  Matrix stable = randomStable(4, 312);
  EXPECT_FALSE(hasImaginaryAxisEigenvalue(stable, 1e-10));
}

// H = S diag(A, -A^T) S^{-1} with the symplectic S = [I 0; K I], so the
// spectrum of H is that of A and its mirror image: one complex pair whose
// distance from the imaginary axis is `offset` times the axis cut at
// `tol`, plus well-damped real modes.
Matrix hamiltonianWithPairNearAxis(std::size_t np, double offset, double tol,
                                   unsigned seed) {
  testing::Xorshift gen(seed);
  // With |lambda| > 1 and ||H||_F small the cut is tol * |lambda|, so
  // |sigma| = offset * tol * |sigma + i omega| fixes sigma.
  const double omega = gen.uniform(1.5, 3.0);
  const double f = offset * tol;
  const double sigma = -f * omega / std::sqrt(1.0 - f * f);
  Matrix d(np, np);
  d(0, 0) = sigma;
  d(0, 1) = omega;
  d(1, 0) = -omega;
  d(1, 1) = sigma;
  for (std::size_t i = 2; i < np; ++i) d(i, i) = -gen.uniform(0.5, 3.0);
  Matrix v = randomMatrix(np, np, seed + 1);
  v *= 0.3 / std::sqrt(static_cast<double>(np));
  for (std::size_t i = 0; i < np; ++i) v(i, i) += 1.0;
  const Matrix a = v * d * linalg::LU(v).inverse();
  const Matrix k = 0.5 * randomSymmetric(np, seed + 2);
  return makeHamiltonian(a, Matrix(np, np), k * a + linalg::atb(a, k));
}

TEST(ImaginaryAxisDetection, AgreesWithStableSubspaceAtTheCut) {
  // Both decisions — the positive-realness certificate and the Eq.-22
  // split of decoupleHamiltonian — apply one cut to bitwise-equal
  // eigenvalues (eigenvalues(h) == realSchur(h).eigenvalues): a pair at
  // half the cut is on the axis for both, a pair at twice the cut for
  // neither. The last orders cross kSchurCrossover, so the multishift
  // path runs too.
  constexpr double kTol = 1e-6;
  for (unsigned seed = 0; seed < 12; ++seed) {
    const std::size_t np = 4 + 6 * seed;
    for (double offset : {0.5, 2.0}) {
      const Matrix h =
          hamiltonianWithPairNearAxis(np, offset, kTol, 900 + seed);
      const bool onAxis = hasImaginaryAxisEigenvalue(h, kTol);
      linalg::ReorderReport reorder;
      const HamiltonianDecoupling dec =
          decoupleHamiltonian(h, kTol, nullptr, &reorder);
      EXPECT_EQ(reorder.rejectedSwaps, 0u)
          << "np=" << np << " offset=" << offset;
      EXPECT_EQ(onAxis, !dec.ok) << "np=" << np << " offset=" << offset;
      EXPECT_EQ(onAxis, offset < 1.0) << "np=" << np << " offset=" << offset;
    }
  }
}

}  // namespace
}  // namespace shhpass::control
