// Tests for descriptor model order reduction on top of the SHH pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>

#include "circuits/generators.hpp"
#include "core/markov.hpp"
#include "core/reduction.hpp"
#include "ds/impulse_tests.hpp"
#include "test_support.hpp"

namespace shhpass::core {
namespace {

using linalg::Matrix;

double worstAxisError(const ds::DescriptorSystem& a,
                      const ds::DescriptorSystem& b,
                      std::initializer_list<double> omegas = {0.0, 1e2, 1e4,
                                                              1e6}) {
  double worst = 0.0;
  for (double w : omegas) {
    ds::TransferValue ga = ds::evalTransfer(a, 0.0, w);
    ds::TransferValue gb = ds::evalTransfer(b, 0.0, w);
    const double scale = std::max(1.0, ga.re.maxAbs() + ga.im.maxAbs());
    worst = std::max(worst, ((ga.re - gb.re).maxAbs() +
                             (ga.im - gb.im).maxAbs()) /
                                scale);
  }
  return worst;
}

TEST(Reduction, FullOrderReproducesTransfer) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ReducedModel rom = reduceDescriptor(g, 100);  // no truncation
  ASSERT_TRUE(rom.ok);
  EXPECT_LT(worstAxisError(g, rom.sys), 1e-6);
}

TEST(Reduction, HankelValuesDescendingAndPositive) {
  circuits::LadderOptions opt;
  opt.sections = 5;
  opt.capAtPort = true;
  ReducedModel rom = reduceDescriptor(circuits::makeRlcLadder(opt), 100);
  ASSERT_TRUE(rom.ok);
  EXPECT_TRUE(std::is_sorted(rom.hankel.rbegin(), rom.hankel.rend()));
  for (double h : rom.hankel) EXPECT_GT(h, 0.0);
}

TEST(Reduction, TruncationKeepsAccuracyAndPassivity) {
  // Strongly damped RC-dominant ladder: fast Hankel decay, so a deep
  // truncation stays accurate.
  circuits::LadderOptions opt;
  opt.sections = 6;
  opt.capAtPort = true;
  opt.r = 5.0;
  opt.l = 1e-5;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ReducedModel rom = reduceDescriptor(g, 6);
  ASSERT_TRUE(rom.ok);
  EXPECT_EQ(rom.properOrder, 6u);
  EXPECT_LT(rom.sys.order(), g.order());
  EXPECT_LT(worstAxisError(g, rom.sys), 0.05);
  // The reduced model is itself a passive descriptor system.
  api::AnalysisReport pr = testing::pipelineReport(rom.sys);
  EXPECT_TRUE(pr.passive) << failureStageName(pr.failure);
}

TEST(Reduction, ErrorShrinksWithRetainedOrder) {
  circuits::LadderOptions opt;
  opt.sections = 6;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ReducedModel coarse = reduceDescriptor(g, 4);
  ReducedModel fine = reduceDescriptor(g, 11);
  ASSERT_TRUE(coarse.ok);
  ASSERT_TRUE(fine.ok);
  EXPECT_LT(worstAxisError(g, fine.sys),
            worstAxisError(g, coarse.sys) + 1e-12);
}

TEST(Reduction, ImpulsivePartPreservedExactly) {
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.l = 2.2e-3;  // port inductor: M1 = l
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ReducedModel rom = reduceDescriptor(g, 4);
  ASSERT_TRUE(rom.ok);
  EXPECT_EQ(rom.impulsiveRank, 1u);
  // The reduced DS must still be impulsive with the same M1.
  M1Extraction m1 = extractM1(rom.sys);
  EXPECT_EQ(m1.chainCount, 1u);
  EXPECT_NEAR(m1.m1(0, 0), opt.l, 1e-9);
  // And at high frequency Im G ~ w * l for both models.
  const double w = 1e7;
  ds::TransferValue gv = ds::evalTransfer(g, 0.0, w);
  ds::TransferValue rv = ds::evalTransfer(rom.sys, 0.0, w);
  EXPECT_NEAR(gv.im(0, 0) / w, rv.im(0, 0) / w, 1e-6);
}

TEST(Reduction, HsvToleranceDropsStates) {
  // The damped ladder has fast HSV decay, so a mild tolerance truncates.
  circuits::LadderOptions opt;
  opt.sections = 6;
  opt.capAtPort = true;
  opt.r = 5.0;
  opt.l = 1e-5;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ReducedModel loose = reduceDescriptor(g, 100, 1e-3);
  ReducedModel full = reduceDescriptor(g, 100, 0.0);
  ASSERT_TRUE(loose.ok);
  ASSERT_TRUE(full.ok);
  EXPECT_LT(loose.properOrder, full.properOrder);
}

TEST(Reduction, FailsGracefullyOnDefectiveInput) {
  // Every input whose Fig.-1 run stops before the pr-test is refused:
  // grade-3 chains, an indefinite M1 (whose negative eigenvalue the PSD
  // factor would silently drop) and unstable finite modes.
  EXPECT_FALSE(
      reduceDescriptor(circuits::makeNonPassiveHigherOrderImpulse(), 4).ok);
  EXPECT_FALSE(
      reduceDescriptor(circuits::makeNonPassiveIndefiniteM1(), 100).ok);
  EXPECT_FALSE(
      reduceDescriptor(circuits::makeNonPassiveNegativeResistor(4), 100).ok);
  // A stable proper part that merely fails positive realness is still a
  // faithful model to reduce: no truncation reproduces G.
  const ds::DescriptorSystem g = circuits::makeNonPassiveNegativeFeedthrough(4);
  ASSERT_EQ(testing::pipelineReport(g).failure, FailureStage::ProperPartNotPr);
  ReducedModel rom = reduceDescriptor(g, 100);
  ASSERT_TRUE(rom.ok);
  const ds::TransferValue gv = ds::evalTransfer(g, 0.0, 1e3);
  const ds::TransferValue rv = ds::evalTransfer(rom.sys, 0.0, 1e3);
  const double err = (gv.re - rv.re).maxAbs() + (gv.im - rv.im).maxAbs();
  EXPECT_LT(err, 1e-8 * (gv.re.maxAbs() + gv.im.maxAbs()));
  // Bad input surfaces as the wrappers' shared exception contract.
  EXPECT_THROW(reduceDescriptor(g, 100, 0.0,
                                std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// ------------- rank decisions at the deflation tolerance boundary

TEST(Reduction, HsvCutoffDecisionPinnedAtBoundary) {
  // The Hankel truncation is a sigma-cutoff decision like the deflation
  // rank policy: straddle one Hankel value with the relative tolerance
  // and the retained order must move by exactly that state, stably under
  // roundoff-level wobble of the cutoff.
  circuits::LadderOptions opt;
  opt.sections = 6;
  opt.capAtPort = true;
  opt.r = 5.0;
  opt.l = 1e-5;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ReducedModel full = reduceDescriptor(g, 100);
  ASSERT_TRUE(full.ok);
  ASSERT_GE(full.hankel.size(), 3u);
  // Find an interior HSV with a clean gap to its predecessor.
  std::size_t j = 0;
  for (std::size_t i = 1; i < full.hankel.size(); ++i)
    if (full.hankel[i] < 0.25 * full.hankel[i - 1]) j = i;
  ASSERT_GT(j, 0u) << "ladder HSVs decay; a gapped index must exist";
  const double ratio = full.hankel[j] / full.hankel.front();
  for (double wobble : {1.0 - 1e-12, 1.0 + 1e-12}) {
    ReducedModel keep = reduceDescriptor(g, 100, ratio * (1.0 - 1e-6) * wobble);
    ReducedModel drop = reduceDescriptor(g, 100, ratio * (1.0 + 1e-6) * wobble);
    ASSERT_TRUE(keep.ok);
    ASSERT_TRUE(drop.ok);
    EXPECT_EQ(keep.properOrder, j + 1) << "wobble " << wobble;
    EXPECT_EQ(drop.properOrder, j) << "wobble " << wobble;
  }
}

TEST(Reduction, NearRankDeficientMarkovMomentBoundary) {
  // M1 = l for the plain ladder, so shrinking the port inductance drives
  // the Markov moment toward rank deficiency. Down to 1e-11 H the whole
  // chain (deflation rank decisions, M1 extraction, reduction reassembly)
  // keeps the impulsive part with the exact moment and reproduces the
  // transfer function.
  circuits::LadderOptions opt;
  opt.sections = 4;
  for (double l : {1e-9, 1e-11}) {
    opt.l = l;
    ds::DescriptorSystem keep = circuits::makeRlcLadder(opt);
    ReducedModel rom = reduceDescriptor(keep, 100);
    ASSERT_TRUE(rom.ok) << "l=" << l;
    EXPECT_EQ(rom.impulsiveRank, 1u) << "l=" << l;
    EXPECT_LT(worstAxisError(keep, rom.sys), 1e-10) << "l=" << l;
    M1Extraction m1 = extractM1(keep);
    EXPECT_EQ(m1.chainCount, 1u) << "l=" << l;
    EXPECT_NEAR(m1.m1(0, 0), l, 1e-6 * l) << "l=" << l;
  }
  // At 1e-13 H the ladder is passive and is called passive, with
  // M1 = 1e-13 on one grade-2 chain. The reduction's M1 factor cut is
  // relative to |M1| and bounded by the chain count, so the moment
  // survives: one impulsive state pair, and the s * l term (10j at
  // 1e14 rad/s, where it dominates G) is reproduced to the same 1e-10.
  // Below 1e6 rad/s the proper part's DC gain carries a ~1e-9 relative
  // error at this time-scale separation, whatever the M1 cut.
  opt.l = 1e-13;
  ds::DescriptorSystem tiny = circuits::makeRlcLadder(opt);
  api::AnalysisReport pr = testing::pipelineReport(tiny);
  EXPECT_EQ(pr.failure, FailureStage::None);
  ReducedModel rom = reduceDescriptor(tiny, 100);
  ASSERT_TRUE(rom.ok);
  EXPECT_EQ(rom.impulsiveRank, 1u);
  EXPECT_LT(worstAxisError(tiny, rom.sys, {1e8, 1e10, 1e12, 1e14}), 1e-10);
  EXPECT_LT(worstAxisError(tiny, rom.sys), 1e-8);
  EXPECT_EQ(extractM1(tiny).chainCount, 1u);
}

}  // namespace
}  // namespace shhpass::core
