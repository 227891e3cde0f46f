// Property-based sweeps over the whole pipeline: structural invariants
// that must hold for every passive model the generators can produce, and
// agreement between independent implementations (SHH test vs Weierstrass
// vs frequency sampling).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/weierstrass.hpp"
#include "circuits/generators.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "ds/balance.hpp"
#include "ds/impulse_tests.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/svd.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using linalg::Matrix;

struct LadderCase {
  std::size_t sections;
  bool capAtPort;
  std::size_t impulsiveEvery;
  bool twoPort;
};

class LadderSweep : public ::testing::TestWithParam<LadderCase> {};

ds::DescriptorSystem makeCase(const LadderCase& c) {
  circuits::LadderOptions opt;
  opt.sections = c.sections;
  opt.capAtPort = c.capAtPort;
  opt.impulsiveEvery = c.impulsiveEvery;
  opt.twoPort = c.twoPort;
  return circuits::makeRlcLadder(opt);
}

TEST_P(LadderSweep, PhysicalLadderIsPassive) {
  ds::DescriptorSystem g = makeCase(GetParam());
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
}

TEST_P(LadderSweep, ShhAgreesWithWeierstrass) {
  ds::DescriptorSystem g = makeCase(GetParam());
  EXPECT_EQ(testing::pipelineReport(g).passive,
            ds::testPassivityWeierstrass(g).passive);
}

TEST_P(LadderSweep, FrequencySamplesNonNegative) {
  ds::DescriptorSystem g = makeCase(GetParam());
  for (double w : {0.0, 1.0, 1e2, 1e5})
    EXPECT_GE(ds::popovMinEigenvalueDs(g, w), -1e-9) << "w=" << w;
}

TEST_P(LadderSweep, M1AlwaysSymmetricPsd) {
  ds::DescriptorSystem g = makeCase(GetParam());
  core::M1Extraction m1 = core::extractM1(ds::balanceDescriptor(g).sys);
  EXPECT_TRUE(m1.symmetric);
  EXPECT_TRUE(m1.psd);
}

TEST_P(LadderSweep, CensusConsistentWithDeflationCounts) {
  // 2 * (impulsive chains of G) directions cancel inside Phi per family;
  // the deflation removes a subspace of dimension >= the chain count.
  ds::DescriptorSystem g = makeCase(GetParam());
  ds::BalancedSystem bal = ds::balanceDescriptor(g);
  ds::ModeCensus mc = ds::censusModes(bal.sys);
  shh::ShhRealization phi = core::buildPhi(bal.sys);
  core::ImpulseDeflationResult s1 = core::deflateImpulseModes(phi);
  if (mc.impulsive == 0) {
    EXPECT_EQ(s1.removed, 0u);
  } else {
    EXPECT_GE(s1.removed, mc.impulsive);
    EXPECT_LE(s1.removed, 4 * mc.impulsive);
  }
  // Stage 2 on the result must always be impulse-free for these models.
  core::NondynamicRemovalResult s2 = core::removeNondynamicModes(s1.reduced);
  EXPECT_TRUE(s2.impulseFree);
  // Total eliminated states: everything except the twice-order proper part.
  EXPECT_EQ(s1.removed + s2.removed + s2.shh.order(), 2 * mc.order);
}

TEST_P(LadderSweep, PipelinePreservesPhiOnAxis) {
  ds::DescriptorSystem g = makeCase(GetParam());
  ds::BalancedSystem bal = ds::balanceDescriptor(g);
  shh::ShhRealization phi = core::buildPhi(bal.sys);
  core::ImpulseDeflationResult s1 = core::deflateImpulseModes(phi);
  core::NondynamicRemovalResult s2 = core::removeNondynamicModes(s1.reduced);
  ASSERT_TRUE(s2.impulseFree);
  ds::DescriptorSystem before = phi.toDescriptor();
  ds::DescriptorSystem after = s2.shh.toDescriptor();
  for (double w : {0.3, 7.0}) {
    ds::TransferValue a = ds::evalTransfer(before, 0.0, w);
    ds::TransferValue b = ds::evalTransfer(after, 0.0, w);
    EXPECT_LT((a.re - b.re).maxAbs(), 1e-6 * (1.0 + a.re.maxAbs()))
        << "w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LadderSweep,
    ::testing::Values(LadderCase{2, true, 0, false},
                      LadderCase{2, false, 0, false},
                      LadderCase{4, true, 0, true},
                      LadderCase{4, false, 2, false},
                      LadderCase{6, true, 3, false},
                      LadderCase{6, false, 0, true},
                      LadderCase{9, true, 2, true},
                      LadderCase{9, false, 3, false}));

class RandomNetSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomNetSweep, RandomNetworksPassive) {
  ds::DescriptorSystem g = circuits::makeRandomRlcNetwork(9, GetParam());
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
}

TEST_P(RandomNetSweep, SparseSingularVariantsHandled) {
  ds::DescriptorSystem g =
      circuits::makeRandomRlcNetwork(8, GetParam(), /*sprinkle=*/true);
  api::AnalysisReport r = testing::pipelineReport(g);
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetSweep,
                         ::testing::Range(100u, 110u));

TEST(AdjointProperties, InvolutionAndHermitianPhi) {
  ds::DescriptorSystem g = circuits::makeRandomRlcNetwork(6, 777);
  // adjoint(adjoint(G)) == G pointwise.
  ds::DescriptorSystem gg = ds::adjoint(ds::adjoint(g));
  for (double w : {0.4, 12.0}) {
    ds::TransferValue a = ds::evalTransfer(g, 0.2, w);
    ds::TransferValue b = ds::evalTransfer(gg, 0.2, w);
    EXPECT_LT((a.re - b.re).maxAbs(), 1e-9);
    EXPECT_LT((a.im - b.im).maxAbs(), 1e-9);
  }
}

TEST(StructuralInvariants, PhiRealizationStructurePreservedByStages) {
  circuits::LadderOptions opt;
  opt.sections = 5;
  opt.impulsiveEvery = 2;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ds::BalancedSystem bal = ds::balanceDescriptor(g);
  shh::ShhRealization phi = core::buildPhi(bal.sys);
  ASSERT_TRUE(phi.checkStructure());
  core::ImpulseDeflationResult s1 = core::deflateImpulseModes(phi);
  ASSERT_TRUE(s1.reduced.checkStructure());
  core::NondynamicRemovalResult s2 = core::removeNondynamicModes(s1.reduced);
  ASSERT_TRUE(s2.impulseFree);
  EXPECT_TRUE(s2.shh.checkStructure());
  // E3 nonsingular, as required for the Eq.-21 normalization.
  EXPECT_EQ(linalg::SVD(s2.shh.e).rank(), s2.shh.order());
}

TEST(NonPassiveMutants, AllDetectedAcrossSizes) {
  for (std::size_t sections : {3u, 5u, 8u}) {
    EXPECT_FALSE(testing::pipelineReport(
                     circuits::makeNonPassiveNegativeFeedthrough(sections))
                     .passive)
        << sections;
  }
  EXPECT_FALSE(
      testing::pipelineReport(circuits::makeNonPassiveIndefiniteM1()).passive);
  EXPECT_FALSE(
      testing::pipelineReport(circuits::makeNonPassiveHigherOrderImpulse())
          .passive);
}

}  // namespace
}  // namespace shhpass
