// Stage-by-stage tests of the proposed pipeline: deflation (Eqs. 11-17),
// nondynamic removal (Eqs. 18-20), proper-part extraction (Eqs. 21-23),
// and M1 extraction (Eqs. 24-25). Each stage is checked for structure
// preservation AND transfer-function preservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/generators.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "core/proper_part.hpp"
#include "control/hamiltonian.hpp"
#include "ds/balance.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/schur.hpp"
#include "linalg/svd.hpp"
#include "shh/symplectic.hpp"
#include "normalizer_oracle.hpp"
#include "svd_chain_oracle.hpp"
#include "test_support.hpp"

namespace shhpass::core {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;

// Compare Phi(jw) of two descriptor realizations.
void expectSameTransferAt(const ds::DescriptorSystem& a,
                          const ds::DescriptorSystem& b, double w,
                          double tol) {
  ds::TransferValue ga = ds::evalTransfer(a, 0.0, w);
  ds::TransferValue gb = ds::evalTransfer(b, 0.0, w);
  expectMatrixNear(ga.re, gb.re, tol);
  expectMatrixNear(ga.im, gb.im, tol);
}

ds::DescriptorSystem impulsiveLadder(std::size_t sections) {
  circuits::LadderOptions opt;
  opt.sections = sections;
  opt.capAtPort = false;  // port inductor => impulsive modes, M1 = l
  return circuits::makeRlcLadder(opt);
}

ds::DescriptorSystem impulseFreeLadder(std::size_t sections) {
  circuits::LadderOptions opt;
  opt.sections = sections;
  opt.capAtPort = true;
  return circuits::makeRlcLadder(opt);
}

TEST(Stage1Deflation, ImpulseFreeSystemRemovesNothing) {
  shh::ShhRealization phi = buildPhi(impulseFreeLadder(3));
  ImpulseDeflationResult r = deflateImpulseModes(phi);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_TRUE(r.reduced.checkStructure());
}

TEST(Stage1Deflation, ImpulsiveLadderCancelsInPhi) {
  ds::DescriptorSystem g = impulsiveLadder(3);
  shh::ShhRealization phi = buildPhi(g);
  ImpulseDeflationResult r = deflateImpulseModes(phi);
  // The port inductor chain cancels against its adjoint: at least one
  // direction is deflated.
  EXPECT_GT(r.removed, 0u);
  EXPECT_TRUE(r.reduced.checkStructure());
  EXPECT_EQ(r.reduced.order(), phi.order() - r.removed);
}

TEST(Stage1Deflation, TransferPreserved) {
  ds::DescriptorSystem g = impulsiveLadder(2);
  shh::ShhRealization phi = buildPhi(g);
  ImpulseDeflationResult r = deflateImpulseModes(phi);
  ASSERT_GT(r.removed, 0u);
  ds::DescriptorSystem before = phi.toDescriptor();
  ds::DescriptorSystem after = r.reduced.toDescriptor();
  for (double w : {0.5, 3.0, 200.0})
    expectSameTransferAt(before, after, w, 1e-7 * (1.0 + w));
}

TEST(Stage1Deflation, JDualityOfSubspaces) {
  // J V_o must consist of impulse-uncontrollable directions:
  // w = J v satisfies E^T w = 0, A^T w in Im E^T, B^T w = 0.
  ds::DescriptorSystem g = impulsiveLadder(2);
  shh::ShhRealization phi = buildPhi(g);
  // Checked on the staircase chain's V_o and on the SVD-chain oracle's.
  Matrix kerE = linalg::SVD(phi.e).nullspace();
  for (const Matrix& vo : {deflateImpulseModes(phi).impulseUnobservable,
                           oracle::impulseUnobservableSubspace(phi)}) {
    ASSERT_GT(vo.cols(), 0u);
    Matrix jv = shh::applyJ(vo);
    EXPECT_LT(linalg::multiply(phi.e, true, jv, false).maxAbs(), 1e-9);
    EXPECT_LT(linalg::multiply(phi.b(), true, jv, false).maxAbs(), 1e-9);
    // A^T (Jv) must lie in Im(E^T) = Ker(E)^perp:
    Matrix atJv = linalg::multiply(phi.a, true, jv, false);
    EXPECT_LT(linalg::atb(kerE, atJv).maxAbs(), 1e-8);
  }
}

TEST(Stage2Nondynamic, ImpulseFreeLadderPasses) {
  shh::ShhRealization phi = buildPhi(impulseFreeLadder(3));
  ImpulseDeflationResult s1 = deflateImpulseModes(phi);
  NondynamicRemovalResult s2 = removeNondynamicModes(s1.reduced);
  EXPECT_TRUE(s2.impulseFree);
  EXPECT_GT(s2.removed, 0u);  // ladder midnodes are nondynamic
  EXPECT_TRUE(s2.shh.checkStructure());
  // E3 nonsingular.
  EXPECT_EQ(linalg::SVD(s2.shh.e).rank(), s2.shh.order());
}

TEST(Stage2Nondynamic, TransferPreserved) {
  shh::ShhRealization phi = buildPhi(impulseFreeLadder(2));
  ImpulseDeflationResult s1 = deflateImpulseModes(phi);
  NondynamicRemovalResult s2 = removeNondynamicModes(s1.reduced);
  ASSERT_TRUE(s2.impulseFree);
  ds::DescriptorSystem before = s1.reduced.toDescriptor();
  ds::DescriptorSystem after = s2.shh.toDescriptor();
  for (double w : {0.7, 10.0, 1e4})
    expectSameTransferAt(before, after, w, 1e-6 * (1.0 + w));
}

// E3 exactly diag(S, S) with S positive and descending.
void expectNormalFormE3(const Matrix& e3) {
  const std::size_t n2 = e3.rows(), np = n2 / 2;
  ASSERT_EQ(n2 % 2, 0u);
  for (std::size_t i = 0; i < n2; ++i)
    for (std::size_t j = 0; j < n2; ++j)
      if (i != j) ASSERT_EQ(e3(i, j), 0.0) << i << "," << j;
  for (std::size_t i = 0; i < np; ++i) {
    EXPECT_EQ(e3(np + i, np + i), e3(i, i)) << i;
    EXPECT_GT(e3(i, i), 0.0) << i;
    if (i > 0) EXPECT_LE(e3(i, i), e3(i - 1, i - 1)) << i;
  }
}

TEST(Stage2Nondynamic, E3InNormalFormAndTransferPreserved) {
  // An ODE (E = I) leaves E1 nonsingular: nothing is removed, and E3 is
  // still handed over in normal form.
  ds::DescriptorSystem ode;
  ode.e = Matrix::identity(3);
  ode.a = Matrix{{-1.0, 0.5, 0.0}, {-0.5, -2.0, 1.0}, {0.0, -1.0, -3.0}};
  ode.b = Matrix{{1.0}, {0.0}, {0.5}};
  ode.c = Matrix{{1.0, 0.2, 0.0}};
  ode.d = Matrix{{0.5}};
  circuits::LadderOptions twoPort;
  twoPort.sections = 4;
  twoPort.twoPort = true;
  twoPort.impulsiveEvery = 2;
  for (const ds::DescriptorSystem& g :
       {ode, impulseFreeLadder(3), impulsiveLadder(4),
        circuits::makeRlcLadder(twoPort),
        circuits::makeBenchmarkModel(20, true)}) {
    ImpulseDeflationResult s1 = deflateImpulseModes(buildPhi(g));
    NondynamicRemovalResult s2 = removeNondynamicModes(s1.reduced);
    ASSERT_TRUE(s2.impulseFree);
    expectNormalFormE3(s2.shh.e);
    EXPECT_TRUE(s2.shh.checkStructure());
    ds::DescriptorSystem before = s1.reduced.toDescriptor();
    ds::DescriptorSystem after = s2.shh.toDescriptor();
    for (double w : {0.7, 10.0, 1e4})
      expectSameTransferAt(before, after, w, 1e-6 * (1.0 + w));
  }
  ImpulseDeflationResult s1 = deflateImpulseModes(buildPhi(ode));
  EXPECT_EQ(removeNondynamicModes(s1.reduced).removed, 0u);
  // E1 must be exactly skew: its skew Schur form is what E3 is built from.
  s1.reduced.e(0, 0) = 1e-3;
  EXPECT_THROW(removeNondynamicModes(s1.reduced), std::invalid_argument);
}

TEST(Stage2Nondynamic, DetectsResidualImpulses) {
  // Feed the *unreduced* Phi of a system with observable+controllable
  // impulsive modes (an asymmetric-M1 mutant whose chains do NOT cancel)
  // into stage 2 after stage 1: A22 must be singular.
  ds::DescriptorSystem g;
  g.e = Matrix{{0.0, 1.0}, {0.0, 0.0}};
  g.a = Matrix::identity(2);
  g.b = Matrix{{0.0}, {1.0}};
  g.c = Matrix{{1.0, 0.0}};  // G(s) = -s: M1 = -1, does NOT cancel sign-wise
  g.d = Matrix{{1.0}};
  // M1 = -1 is symmetric, so the chain DOES cancel in Phi. Use instead a
  // two-port with M1 = [0 1; 0 0] (not even symmetric):
  ds::DescriptorSystem g2;
  g2.e = Matrix::zeros(2, 2);
  g2.e(0, 1) = 1.0;
  g2.a = Matrix::identity(2);
  g2.b = Matrix{{0.0, 0.0}, {1.0, 0.0}};
  g2.c = Matrix{{0.0, 0.0}, {-1.0, 0.0}};
  g2.d = Matrix::identity(2);
  // G2(s) = I + [0 0; s 0]: M1 = [0 0; 1 0] asymmetric => Phi has
  // observable impulsive modes that survive stage 1.
  shh::ShhRealization phi = buildPhi(g2);
  ImpulseDeflationResult s1 = deflateImpulseModes(phi);
  NondynamicRemovalResult s2 = removeNondynamicModes(s1.reduced);
  EXPECT_FALSE(s2.impulseFree);
}

TEST(Stage3ProperPart, LadderProperPartMatchesPhi) {
  ds::DescriptorSystem g = impulseFreeLadder(2);
  shh::ShhRealization phi = buildPhi(g);
  ImpulseDeflationResult s1 = deflateImpulseModes(phi);
  NondynamicRemovalResult s2 = removeNondynamicModes(s1.reduced);
  ASSERT_TRUE(s2.impulseFree);
  ProperPartResult pp = extractProperPart(s2.shh);
  ASSERT_TRUE(pp.ok);
  // Hp + Hp~ must reproduce Phi on the axis: Phi(jw) = 2 Herm(Hp(jw)).
  ds::DescriptorSystem hp;
  hp.e = Matrix::identity(pp.lambda.rows());
  hp.a = pp.lambda;
  hp.b = pp.b1;
  hp.c = pp.c1;
  hp.d = pp.dHalf;
  ds::DescriptorSystem phiDs = phi.toDescriptor();
  for (double w : {0.4, 5.0, 3e3}) {
    ds::TransferValue hpv = ds::evalTransfer(hp, 0.0, w);
    ds::TransferValue phiv = ds::evalTransfer(phiDs, 0.0, w);
    // Phi = Hp + Hp~: real parts add, imaginary parts cancel pairwise
    // (scalar port => Im Phi = 0).
    expectMatrixNear(hpv.re + hpv.re.transposed(), phiv.re,
                     1e-6 * (1.0 + phiv.re.maxAbs()));
  }
  // Lambda is Hurwitz.
  for (const auto& l : linalg::eigenvalues(pp.lambda))
    EXPECT_LT(l.real(), 0.0);
}

TEST(Stage3ProperPart, HamiltonianIntermediate) {
  ds::DescriptorSystem g = impulseFreeLadder(3);
  shh::ShhRealization phi = buildPhi(g);
  ImpulseDeflationResult s1 = deflateImpulseModes(phi);
  NondynamicRemovalResult s2 = removeNondynamicModes(s1.reduced);
  ASSERT_TRUE(s2.impulseFree);
  ProperPartResult pp = extractProperPart(s2.shh);
  ASSERT_TRUE(pp.ok);
  EXPECT_TRUE(control::isHamiltonian(pp.a4, 1e-7));
}

TEST(Stage3ProperPart, RejectsE3NotInNormalForm) {
  shh::ShhRealization phi = buildPhi(impulseFreeLadder(3));
  NondynamicRemovalResult s2 =
      removeNondynamicModes(deflateImpulseModes(phi).reduced);
  ASSERT_TRUE(s2.impulseFree);
  const std::size_t np = s2.shh.order() / 2;
  ASSERT_GE(np, 2u);
  shh::ShhRealization offDiagonal = s2.shh;
  offDiagonal.e(0, 1) = 1e-3;
  EXPECT_THROW(extractProperPart(offDiagonal), std::invalid_argument);
  shh::ShhRealization unpaired = s2.shh;
  unpaired.e(np, np) *= 2.0;
  EXPECT_THROW(extractProperPart(unpaired), std::invalid_argument);
  // A skew-Hamiltonian but dense E3 (the same pencil in other
  // coordinates) is not accepted either.
  shh::ShhRealization dense = s2.shh;
  dense.e = 0.5 * (s2.shh.e + shh::applyJ(shh::applyJ(s2.shh.e)));
  dense.e(0, np + 1) = 0.25;
  dense.e(1, np) = -0.25;
  EXPECT_THROW(extractProperPart(dense), std::invalid_argument);
  // Normal form with a numerically zero S entry: singular E3.
  shh::ShhRealization singular = s2.shh;
  singular.e(np - 1, np - 1) = singular.e(2 * np - 1, 2 * np - 1) = 0.0;
  EXPECT_THROW(extractProperPart(singular), std::runtime_error);
}

// Random orthogonal symplectic Q = [X -Y; Y X] (X + iY unitary):
// diag(U, U) * [C -S; S C] * diag(V, V) with U, V random orthogonal and
// C, S the cosines and sines of random angles.
Matrix randomOrthogonalSymplectic(std::size_t np, unsigned seed) {
  const Matrix u =
      linalg::QR(testing::randomMatrix(np, np, seed)).applyQ(
          Matrix::identity(np));
  const Matrix v =
      linalg::QR(testing::randomMatrix(np, np, seed + 1)).applyQ(
          Matrix::identity(np));
  Matrix c(np, np), sn(np, np);
  for (std::size_t i = 0; i < np; ++i) {
    const double theta = 0.37 + 1.3 * static_cast<double>(i);
    c(i, i) = std::cos(theta);
    sn(i, i) = std::sin(theta);
  }
  const Matrix x = u * c * v, y = u * sn * v;
  Matrix q(2 * np, 2 * np);
  q.setBlock(0, 0, x);
  q.setBlock(0, np, -1.0 * y);
  q.setBlock(np, 0, y);
  q.setBlock(np, np, x);
  return q;
}

// Max relative deviation of Phi(jw) = Hp(jw) + Hp(jw)^H reproduced by a
// stable proper part, against a realization of Phi.
double phiReproductionError(const ds::DescriptorSystem& phi,
                            const Matrix& lambda, const Matrix& b1,
                            const Matrix& c1, const Matrix& dHalf) {
  ds::DescriptorSystem hp;
  hp.e = Matrix::identity(lambda.rows());
  hp.a = lambda;
  hp.b = b1;
  hp.c = c1;
  hp.d = dHalf;
  double worst = 0.0;
  for (double w : {0.1, 1.0, 10.0, 100.0}) {
    ds::TransferValue hv = ds::evalTransfer(hp, 0.0, w);
    ds::TransferValue pv = ds::evalTransfer(phi, 0.0, w);
    const double scale = std::max(1.0, pv.re.maxAbs() + pv.im.maxAbs());
    const Matrix re = hv.re + hv.re.transposed() - pv.re;
    const Matrix im = hv.im - hv.im.transposed() - pv.im;
    worst = std::max(worst, (re.maxAbs() + im.maxAbs()) / scale);
  }
  return worst;
}

TEST(Stage3ProperPart, DiagonalScalingMatchesArnoldiOracle) {
  // The diagonal scaling of the normal-form E3 against the
  // isotropic-Arnoldi K_L K_R normalization, run on the same pencil in
  // dense orthogonal-symplectic coordinates (Q^T E3 Q, Q^T A3 Q, C3 Q):
  // both proper parts must reproduce Phi, the diagonal path at least as
  // well as the oracle.
  std::vector<std::pair<std::string, ds::DescriptorSystem>> models;
  for (std::size_t sections : {2u, 5u, 8u}) {
    models.push_back({"impulsive-ladder", impulsiveLadder(sections)});
    models.push_back({"impulse-free-ladder", impulseFreeLadder(sections)});
  }
  for (std::size_t n : {20u, 40u, 80u, 120u, 200u})
    for (bool impulsive : {false, true})
      models.push_back({"table1-" + std::to_string(n),
                        circuits::makeBenchmarkModel(n, impulsive)});
  unsigned seed = 1;
  for (const auto& [name, g] : models) {
    SCOPED_TRACE(name + " order " + std::to_string(g.order()));
    const ds::DescriptorSystem bal = ds::balanceDescriptor(g).sys;
    const shh::ShhRealization phi = buildPhi(bal);
    NondynamicRemovalResult s2 =
        removeNondynamicModes(deflateImpulseModes(phi).reduced);
    ASSERT_TRUE(s2.impulseFree);
    const ProperPartResult pp = extractProperPart(s2.shh);
    ASSERT_TRUE(pp.ok);

    const Matrix q = randomOrthogonalSymplectic(s2.shh.order() / 2, seed);
    seed += 2;
    shh::ShhRealization dense = s2.shh;
    dense.e = linalg::atb(q, s2.shh.e * q);
    dense.a = linalg::atb(q, s2.shh.a * q);
    dense.c = s2.shh.c * q;
    const oracle::ProperPart ora = oracle::properPartByArnoldi(dense);
    ASSERT_TRUE(ora.ok);
    ASSERT_EQ(ora.lambda.rows(), pp.lambda.rows());

    const ds::DescriptorSystem phiDs = phi.toDescriptor();
    const double errNew =
        phiReproductionError(phiDs, pp.lambda, pp.b1, pp.c1, pp.dHalf);
    const double errOracle = phiReproductionError(
        phiDs, ora.lambda, ora.b1, ora.c1, ora.dHalf);
    EXPECT_LT(errNew, 1e-11);
    EXPECT_LT(errOracle, 1e-6);
    EXPECT_LE(errNew, std::max(errOracle, 1e-12));
  }
}

TEST(M1ExtractionTest, ImpulseFreeGivesZero) {
  M1Extraction m1 = extractM1(impulseFreeLadder(3));
  EXPECT_EQ(m1.chainCount, 0u);
  EXPECT_TRUE(m1.symmetric);
  EXPECT_TRUE(m1.psd);
  EXPECT_EQ(m1.m1.maxAbs(), 0.0);
}

TEST(M1ExtractionTest, PortInductorGivesInductance) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.l = 4.2e-3;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  M1Extraction m1 = extractM1(g);
  EXPECT_GE(m1.chainCount, 1u);
  EXPECT_TRUE(m1.symmetric);
  EXPECT_TRUE(m1.psd);
  EXPECT_NEAR(m1.m1(0, 0), opt.l, 1e-9);
}

TEST(M1ExtractionTest, PureDifferentiator) {
  ds::DescriptorSystem g;
  g.e = Matrix{{0.0, 1.0}, {0.0, 0.0}};
  g.a = Matrix::identity(2);
  g.b = Matrix{{0.0}, {1.0}};
  g.c = Matrix{{-1.0, 0.0}};
  g.d = Matrix{{0.0}};
  M1Extraction m1 = extractM1(g);
  EXPECT_EQ(m1.chainCount, 1u);
  EXPECT_NEAR(m1.m1(0, 0), 1.0, 1e-12);
  EXPECT_TRUE(m1.psd);
}

TEST(M1ExtractionTest, IndefiniteM1Detected) {
  M1Extraction m1 = extractM1(circuits::makeNonPassiveIndefiniteM1());
  EXPECT_EQ(m1.chainCount, 2u);
  EXPECT_TRUE(m1.symmetric);
  EXPECT_FALSE(m1.psd);
  EXPECT_NEAR(m1.m1(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(m1.m1(1, 1), -1.0, 1e-10);
}

TEST(HigherOrderCheck, DetectsGrade3Chains) {
  EXPECT_TRUE(
      hasHigherOrderImpulses(circuits::makeNonPassiveHigherOrderImpulse()));
  EXPECT_FALSE(hasHigherOrderImpulses(impulsiveLadder(2)));
  EXPECT_FALSE(hasHigherOrderImpulses(impulseFreeLadder(2)));
}

}  // namespace
}  // namespace shhpass::core
