// End-to-end tests of the proposed SHH passivity test (Fig. 1) on passive
// and non-passive descriptor systems, plus agreement with the Weierstrass
// baseline.
#include <gtest/gtest.h>

#include "baselines/weierstrass.hpp"
#include "circuits/generators.hpp"
#include "test_support.hpp"

namespace shhpass::core {
namespace {

using linalg::Matrix;

TEST(ShhPassivity, ImpulseFreeLadderIsPassive) {
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.capAtPort = true;
  api::AnalysisReport r = testing::pipelineReport(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive) << failureStageName(r.failure);
  EXPECT_EQ(r.removedImpulsive, 0u);
  EXPECT_GT(r.removedNondynamic, 0u);
  EXPECT_EQ(r.impulsiveChains, 0u);
}

TEST(ShhPassivity, ImpulsiveLadderIsPassive) {
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.capAtPort = false;
  api::AnalysisReport r = testing::pipelineReport(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive) << failureStageName(r.failure);
  EXPECT_GT(r.removedImpulsive, 0u);
  EXPECT_GE(r.impulsiveChains, 1u);
  // M1 equals the port inductance.
  EXPECT_NEAR(r.m1(0, 0), opt.l, 1e-9);
}

TEST(ShhPassivity, LLSectionsStillPassive) {
  circuits::LadderOptions opt;
  opt.sections = 6;
  opt.impulsiveEvery = 2;
  api::AnalysisReport r = testing::pipelineReport(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive) << failureStageName(r.failure);
}

TEST(ShhPassivity, SevenSectionCapAtPortLadderPassive) {
  // Regression: this configuration used to be falsely declared non-passive
  // (LosslessAxisModes). During Schur reordering of the proper-part
  // Hamiltonian, a near-degenerate complex pair drifted onto the real axis
  // as a fused 2x2 block straddling zero; the stable/antistable split then
  // miscounted (13 vs 15) and the extraction gave up. reorderSchur now
  // splits real-eigenvalue 2x2 blocks before selecting.
  circuits::LadderOptions opt;
  opt.sections = 7;
  opt.capAtPort = true;
  api::AnalysisReport r = testing::pipelineReport(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive) << failureStageName(r.failure);
}

TEST(ShhPassivity, TwoPortLadderPassive) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.twoPort = true;
  opt.capAtPort = true;
  api::AnalysisReport r = testing::pipelineReport(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive) << failureStageName(r.failure);
}

TEST(ShhPassivity, RandomRlcNetworksPassive) {
  for (unsigned seed : {11u, 12u, 13u}) {
    api::AnalysisReport r =
        testing::pipelineReport(circuits::makeRandomRlcNetwork(7, seed));
    EXPECT_TRUE(r.passive)
        << "seed=" << seed << ": " << failureStageName(r.failure);
  }
}

TEST(ShhPassivity, RegularStateSpacePassive) {
  // Nonsingular E: the pipeline reduces to a proper-part test only.
  ds::DescriptorSystem g;
  g.e = Matrix{{2.0}};
  g.a = Matrix{{-3.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{0.25}};
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_TRUE(r.passive) << failureStageName(r.failure);
  EXPECT_EQ(r.removedImpulsive, 0u);
  EXPECT_EQ(r.removedNondynamic, 0u);
}

TEST(ShhPassivity, NegativeResistorFails) {
  // The strongly negative leak resistor destabilizes the network, so the
  // stability screen (or, in milder variants, the proper-part stage)
  // rejects it.
  api::AnalysisReport r =
      testing::pipelineReport(circuits::makeNonPassiveNegativeResistor(4));
  EXPECT_FALSE(r.passive);
  EXPECT_TRUE(r.failure == FailureStage::UnstableFiniteModes ||
              r.failure == FailureStage::ProperPartNotPr)
      << failureStageName(r.failure);
}

TEST(ShhPassivity, NegativeFeedthroughFailsInProperPart) {
  api::AnalysisReport r =
      testing::pipelineReport(circuits::makeNonPassiveNegativeFeedthrough(4));
  EXPECT_FALSE(r.passive);
  EXPECT_EQ(r.failure, FailureStage::ProperPartNotPr);
}

TEST(ShhPassivity, IndefiniteM1Fails) {
  api::AnalysisReport r =
      testing::pipelineReport(circuits::makeNonPassiveIndefiniteM1());
  EXPECT_FALSE(r.passive);
  EXPECT_EQ(r.failure, FailureStage::M1NotPsd);
}

TEST(ShhPassivity, HigherOrderImpulseFails) {
  api::AnalysisReport r =
      testing::pipelineReport(circuits::makeNonPassiveHigherOrderImpulse());
  EXPECT_FALSE(r.passive);
  // Symmetric M2 does not cancel in Phi: caught as residual impulses (or,
  // if it cancels structurally, by the index check).
  EXPECT_TRUE(r.failure == FailureStage::ResidualImpulses ||
              r.failure == FailureStage::HigherOrderImpulse)
      << failureStageName(r.failure);
}

TEST(ShhPassivity, AsymmetricM1FailsAsResidualImpulse) {
  // G(s) = I + [0 0; s 0]: M1 asymmetric, no cancellation in Phi.
  ds::DescriptorSystem g;
  g.e = Matrix::zeros(2, 2);
  g.e(0, 1) = 1.0;
  g.a = Matrix::identity(2);
  g.b = Matrix{{0.0, 0.0}, {1.0, 0.0}};
  g.c = Matrix{{0.0, 0.0}, {-1.0, 0.0}};
  g.d = Matrix::identity(2);
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_FALSE(r.passive);
  EXPECT_EQ(r.failure, FailureStage::ResidualImpulses);
}

TEST(ShhPassivity, SkewM1CancelsButFailsM1Check) {
  // M1 = [0 1; -1 0] (skew): cancels inside Phi (M1 + M1^T = 0) yet is not
  // a valid residue matrix. The M1 extraction must catch it.
  ds::DescriptorSystem g;
  const std::size_t n = 4;
  g.e = Matrix::zeros(n, n);
  g.a = Matrix::zeros(n, n);
  g.b = Matrix::zeros(n, 2);
  g.c = Matrix::zeros(2, n);
  g.d = Matrix::identity(2);
  auto addBlock = [&](std::size_t at, std::size_t inPort, std::size_t outPort,
                      double m1) {
    g.e(at, at + 1) = 1.0;
    g.a(at, at) = 1.0;
    g.a(at + 1, at + 1) = 1.0;
    g.b(at + 1, inPort) = 1.0;
    g.c(outPort, at) = -m1;
  };
  addBlock(0, 1, 0, 1.0);   // contributes +s at (0,1)
  addBlock(2, 0, 1, -1.0);  // contributes -s at (1,0)
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_FALSE(r.passive);
  EXPECT_EQ(r.failure, FailureStage::M1NotPsd);
}

TEST(ShhPassivity, UnstableSystemScreened) {
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{0.5}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{1.0}};
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_FALSE(r.passive);
  EXPECT_EQ(r.failure, FailureStage::UnstableFiniteModes);
}

TEST(ShhPassivity, SingularPencilScreened) {
  ds::DescriptorSystem g;
  g.e = Matrix::zeros(2, 2);
  g.a = Matrix::zeros(2, 2);
  g.b = Matrix(2, 1);
  g.c = Matrix(1, 2);
  g.d = Matrix(1, 1);
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_EQ(r.failure, FailureStage::SingularPencil);
}

TEST(ShhPassivity, NonSquareScreened) {
  ds::DescriptorSystem g;
  g.e = Matrix::identity(2);
  g.a = -1.0 * Matrix::identity(2);
  g.b = Matrix(2, 1, 1.0);
  g.c = Matrix(2, 2, 0.5);
  g.d = Matrix(2, 1);
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_EQ(r.failure, FailureStage::NotSquare);
}

// Agreement with the Weierstrass baseline across a model sweep.
class AgreementSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(AgreementSweep, ShhAgreesWithWeierstrass) {
  const auto [order, impulsive] = GetParam();
  ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, impulsive);
  api::AnalysisReport shh = testing::pipelineReport(g);
  ds::WeierstrassPassivityResult wei = ds::testPassivityWeierstrass(g);
  EXPECT_TRUE(shh.passive) << failureStageName(shh.failure);
  EXPECT_EQ(shh.passive, wei.passive);
}

INSTANTIATE_TEST_SUITE_P(
    BenchModels, AgreementSweep,
    ::testing::Combine(::testing::Values(12, 20, 33, 40),
                       ::testing::Bool()));

}  // namespace
}  // namespace shhpass::core
