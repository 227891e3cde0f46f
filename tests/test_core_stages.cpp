// Stage-by-stage tests of the proposed pipeline: deflation (Eqs. 11-17),
// nondynamic removal (Eqs. 18-20), proper-part extraction (Eqs. 21-23),
// and M1 extraction (Eqs. 24-25). Each stage is checked for structure
// preservation AND transfer-function preservation.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/generators.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "core/proper_part.hpp"
#include "control/hamiltonian.hpp"
#include "linalg/blas.hpp"
#include "linalg/schur.hpp"
#include "linalg/svd.hpp"
#include "shh/symplectic.hpp"
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
  Matrix kerE = linalg::kernel(phi.e);
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
  EXPECT_EQ(linalg::rank(s2.shh.e), s2.shh.order());
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
