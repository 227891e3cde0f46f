// Tests for the SHH machinery: symplectic helpers, Phi construction,
// the isotropic-Arnoldi block-triangularization, and the Hamiltonian
// decoupling.
#include <gtest/gtest.h>

#include <complex>

#include "circuits/generators.hpp"
#include "control/hamiltonian.hpp"
#include "core/phi_builder.hpp"
#include "ds/descriptor.hpp"
#include "linalg/blas.hpp"
#include "linalg/schur.hpp"
#include "linalg/schur_reorder.hpp"
#include "shh/isotropic_arnoldi.hpp"
#include "shh/stable_subspace.hpp"
#include "shh/symplectic.hpp"
#include "test_support.hpp"

namespace shhpass::shh {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;
using testing::randomMatrix;
using testing::randomStable;
using testing::randomSymmetric;

// Random skew-Hamiltonian matrix [A G; Q A^T], G, Q skew.
Matrix randomSkewHamiltonian(std::size_t n, unsigned seed) {
  Matrix a = randomMatrix(n, n, seed);
  Matrix g = randomMatrix(n, n, seed + 1);
  Matrix q = randomMatrix(n, n, seed + 2);
  Matrix w(2 * n, 2 * n);
  w.setBlock(0, 0, a);
  w.setBlock(0, n, g - g.transposed());
  w.setBlock(n, 0, q - q.transposed());
  w.setBlock(n, n, a.transposed());
  return w;
}

TEST(Symplectic, ApplyJMatchesMatrix) {
  Matrix x = randomMatrix(6, 2, 601);
  Matrix j = Matrix::symplecticJ(3);
  expectMatrixNear(applyJ(x), j * x, 1e-14);
  expectMatrixNear(applyJ(applyJ(x)), -1.0 * x, 1e-14);
}

TEST(Symplectic, Predicates) {
  EXPECT_TRUE(isOrthogonalSymplectic(Matrix::identity(4)));
  EXPECT_TRUE(isOrthogonalSymplectic(Matrix::symplecticJ(2)));
  EXPECT_FALSE(isOrthogonalSymplectic(2.0 * Matrix::identity(4)));
  // [I Y; 0 I] with symmetric Y is symplectic but not orthogonal.
  Matrix s = Matrix::identity(6);
  s.setBlock(0, 3, randomSymmetric(3, 602));
  EXPECT_TRUE(isSymplectic(s));
  EXPECT_FALSE(isOrthogonalSymplectic(s));
  // Skew upper-right block is NOT symplectic.
  Matrix bad = Matrix::identity(6);
  Matrix k = randomMatrix(3, 3, 603);
  bad.setBlock(0, 3, k - k.transposed() + Matrix::identity(3) * 0.0);
  if (!bad.block(0, 3, 3, 3).isSymmetric(1e-12))
    EXPECT_FALSE(isSymplectic(bad));
}

TEST(PhiBuilder, StructureHolds) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  core::buildPhi(g);
  shh::ShhRealization phi = core::buildPhi(g);
  EXPECT_EQ(phi.order(), 2 * g.order());
  EXPECT_TRUE(phi.checkStructure());
}

TEST(PhiBuilder, TransferIsGPlusAdjoint) {
  circuits::LadderOptions opt;
  opt.sections = 2;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  shh::ShhRealization phi = core::buildPhi(g);
  ds::DescriptorSystem phiDs = phi.toDescriptor();
  ds::DescriptorSystem phiRef = ds::add(g, ds::adjoint(g));
  for (double w : {0.3, 2.0, 40.0}) {
    ds::TransferValue a = ds::evalTransfer(phiDs, 0.0, w);
    ds::TransferValue b = ds::evalTransfer(phiRef, 0.0, w);
    expectMatrixNear(a.re, b.re, 1e-9);
    expectMatrixNear(a.im, b.im, 1e-9);
  }
}

TEST(PhiBuilder, RejectsNonSquare) {
  ds::DescriptorSystem g;
  g.e = Matrix::identity(2);
  g.a = -1.0 * Matrix::identity(2);
  g.b = Matrix(2, 1, 1.0);
  g.c = Matrix(2, 2, 1.0);
  g.d = Matrix(2, 1);
  EXPECT_THROW(core::buildPhi(g), std::invalid_argument);
}

TEST(IsotropicArnoldi, BlockTriangularizesRandomSkewHamiltonian) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    Matrix w = randomSkewHamiltonian(n, 610 + static_cast<unsigned>(n));
    SkewHamiltonianTriangularization tri =
        skewHamiltonianBlockTriangularize(w);
    EXPECT_TRUE(isOrthogonalSymplectic(tri.z, 1e-9)) << "n=" << n;
    // Z^T W Z reproduces the stored block form.
    Matrix ztwz = linalg::multiply(linalg::atb(tri.z, w), false, tri.z,
                                   false);
    expectMatrixNear(ztwz, tri.w, 1e-8 * std::max(1.0, w.maxAbs()));
    // Lower-left block zero; W22 = W11^T; Theta skew; Ebar Hessenberg.
    Matrix ll = tri.w.block(n, 0, n, n);
    EXPECT_EQ(ll.maxAbs(), 0.0);
    expectMatrixNear(tri.w.block(n, n, n, n), tri.ebar().transposed(), 0.0);
    EXPECT_TRUE(tri.theta().isSkewSymmetric(0.0));
    for (std::size_t i = 2; i < n; ++i)
      for (std::size_t j = 0; j + 1 < i; ++j)
        EXPECT_EQ(tri.ebar()(i, j), 0.0);
  }
}

TEST(IsotropicArnoldi, PreservesSkewHamiltonianStructure) {
  Matrix w = randomSkewHamiltonian(6, 620);
  SkewHamiltonianTriangularization tri = skewHamiltonianBlockTriangularize(w);
  EXPECT_TRUE(control::isSkewHamiltonian(tri.w, 1e-9));
}

TEST(IsotropicArnoldi, RejectsOddSize) {
  EXPECT_THROW(skewHamiltonianBlockTriangularize(Matrix::identity(3)),
               std::invalid_argument);
}

TEST(HamiltonianDecouplingTest, BlockDiagonalizes) {
  // Orders chosen so the congruence, the windowed reordering (64-row
  // windows over 2np rows) and the blocked Lyapunov solve (64-wide
  // panels over np) all cross their block boundaries.
  for (std::size_t np : {1u, 4u, 40u, 70u, 130u}) {
    SCOPED_TRACE(np);
    const unsigned seed = 630 + static_cast<unsigned>(np);
    Matrix a = randomStable(np, seed);
    Matrix b = randomMatrix(np, 2, seed + 1);
    Matrix c = randomMatrix(2, np, seed + 2);
    Matrix h = control::makeHamiltonian(a, -1.0 * linalg::abt(b, b),
                                        -1.0 * linalg::atb(c, c));
    HamiltonianDecoupling dec = decoupleHamiltonian(h);
    ASSERT_TRUE(dec.ok);
    ASSERT_EQ(dec.z1.rows(), 2 * np);
    ASSERT_EQ(dec.y.rows(), np);
    EXPECT_TRUE(isOrthogonalSymplectic(dec.z1, 1e-10));

    // The decoupling transform Z2 = Z1 [I Y; 0 I] and its inverse
    // [I -Y; 0 I] Z1^T, formed here only.
    Matrix s = Matrix::identity(2 * np);
    s.setBlock(0, np, dec.y);
    Matrix sInv = Matrix::identity(2 * np);
    sInv.setBlock(0, np, -1.0 * dec.y);
    const Matrix z2 = dec.z1 * s;
    const Matrix z2inv = linalg::multiply(sInv, false, dec.z1, true);
    const double scale = std::max(1.0, h.maxAbs()) *
                         std::max(1.0, dec.y.maxAbs()) *
                         static_cast<double>(np);
    EXPECT_TRUE(isSymplectic(z2, 1e-8 * std::max(1.0, dec.y.maxAbs())));
    expectMatrixNear(z2inv * z2, Matrix::identity(2 * np),
                     1e-12 * std::max(1.0, dec.y.maxAbs()) *
                         static_cast<double>(np));
    Matrix t = z2inv * h * z2;
    // Block diagonal diag(Lambda, -Lambda^T).
    expectMatrixNear(t.block(0, 0, np, np), dec.lambda, 1e-11 * scale);
    expectMatrixNear(t.block(np, np, np, np), -1.0 * dec.lambda.transposed(),
                     1e-11 * scale);
    EXPECT_LT(t.block(0, np, np, np).maxAbs(), 1e-11 * scale);
    EXPECT_LT(t.block(np, 0, np, np).maxAbs(), 1e-11 * scale);

    // Lambda is exactly quasi-triangular, with the block pattern of the
    // reordered Schur factor it equals in exact arithmetic.
    linalg::RealSchurResult rs = linalg::realSchur(h);
    ASSERT_EQ(linalg::reorderSchur(
                  rs.t, rs.q,
                  [](std::complex<double> l) { return l.real() < 0.0; }),
              np);
    for (std::size_t i = 2; i < np; ++i)
      for (std::size_t j = 0; j + 1 < i; ++j)
        ASSERT_EQ(dec.lambda(i, j), 0.0) << "(" << i << "," << j << ")";
    for (std::size_t i = 0; i + 1 < np; ++i)
      EXPECT_EQ(dec.lambda(i + 1, i) == 0.0, rs.t(i + 1, i) == 0.0)
          << "subdiagonal " << i;
    // Lambda stable.
    for (const auto& l : linalg::eigenvalues(dec.lambda))
      EXPECT_LT(l.real(), 0.0);
  }
}

TEST(HamiltonianDecouplingTest, FailsOnAxisSpectrum) {
  EXPECT_FALSE(decoupleHamiltonian(Matrix::symplecticJ(2)).ok);
}

}  // namespace
}  // namespace shhpass::shh
