// Golden-value end-to-end test: a hand-solvable series-RLC one-port where
// every quantity the library computes has a closed form.
//
// Circuit: port --R1-- n2 --L-- n3 --(C || R2)-- ground.
//   Z(s) = R1 + s L + R2 / (1 + s R2 C)
// Closed forms:
//   M1 = L (residue of the pole at infinity), M0 = R1,
//   Re Z(jw) = R1 + R2 / (1 + (w R2 C)^2)  (monotone in w),
//   passivity margin = min_w Re Z = R1 (attained at w = infinity),
//   Z(0) = R1 + R2.
#include <gtest/gtest.h>

#include <cmath>

#include "api/shhpass.hpp"
#include "circuits/generators.hpp"
#include "circuits/mna.hpp"
#include "circuits/netlist.hpp"
#include "core/margin.hpp"
#include "core/markov.hpp"
#include "core/reduction.hpp"
#include "ds/balance.hpp"
#include "ds/impulse_tests.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

constexpr double kR1 = 0.75, kL = 0.4, kC = 0.2, kR2 = 3.0;

ds::DescriptorSystem goldenCircuit() {
  circuits::Netlist net(3);
  net.addResistor(1, 2, kR1);
  net.addInductor(2, 3, kL);
  net.addCapacitor(3, 0, kC);
  net.addResistor(3, 0, kR2);
  net.addPort(1);
  return circuits::stampMna(net);
}


TEST(Golden, TransferMatchesClosedForm) {
  ds::DescriptorSystem g = goldenCircuit();
  for (double w : {0.0, 0.5, 2.0, 50.0}) {
    ds::TransferValue z = ds::evalTransfer(g, 0.0, w);
    // Z(jw) = R1 + jwL + R2/(1 + jw R2 C).
    const double den = 1.0 + w * w * kR2 * kR2 * kC * kC;
    const double re = kR1 + kR2 / den;
    const double im = w * kL - w * kR2 * kR2 * kC / den;
    EXPECT_NEAR(z.re(0, 0), re, 1e-10) << "w=" << w;
    EXPECT_NEAR(z.im(0, 0), im, 1e-10) << "w=" << w;
  }
}

TEST(Golden, ModeCensus) {
  // States: 3 node voltages + 1 inductor current; only n3 has capacitance,
  // so rank(E) = 2 (C row + L row). n2 is purely inductive+resistive.
  ds::DescriptorSystem g = goldenCircuit();
  ds::ModeCensus mc = ds::censusModes(g);
  EXPECT_EQ(mc.order, 4u);
  EXPECT_EQ(mc.rankE, 2u);
  // One finite pole (the RC), one impulsive chain (the series L path),
  // nondynamic remainder.
  EXPECT_EQ(mc.finite, 1u);
  EXPECT_EQ(mc.impulsive, 1u);
  EXPECT_EQ(mc.nondynamic, 2u);
  EXPECT_FALSE(ds::isImpulseFree(g));
  EXPECT_EQ(ds::pencilIndex(g), 2u);
  EXPECT_FALSE(core::hasHigherOrderImpulses(g));
}

TEST(Golden, M1IsTheInductance) {
  core::M1Extraction m1 = core::extractM1(goldenCircuit());
  ASSERT_EQ(m1.chainCount, 1u);
  EXPECT_TRUE(m1.psd);
  EXPECT_NEAR(m1.m1(0, 0), kL, 1e-10);
}

TEST(Golden, PassiveWithDiagnostics) {
  api::AnalysisReport r = testing::pipelineReport(goldenCircuit());
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
  EXPECT_NEAR(r.m1(0, 0), kL, 1e-9);
  EXPECT_GT(r.removedImpulsive, 0u);
}

TEST(Golden, ReorderHealthOnWellConditionedSeed) {
  // On a tiny well-conditioned model every adjacent-block exchange of the
  // Eq.-(22) split must be accepted, with residual and drift at round-off.
  api::AnalysisReport r = testing::pipelineReport(goldenCircuit());
  EXPECT_EQ(r.reorder.rejectedSwaps, 0u);
  EXPECT_TRUE(r.reorder.clean());
  EXPECT_LE(r.reorder.maxResidual, 1e-10);
  EXPECT_LE(r.reorder.eigenvalueDrift, 1e-8);
}

TEST(Golden, MarginIsSeriesResistance) {
  core::PassivityMargin pm = core::passivityMargin(goldenCircuit(), 1e-8);
  ASSERT_TRUE(pm.defined);
  // min_w Re Z = R1 at w -> infinity.
  EXPECT_NEAR(pm.margin, kR1, 1e-4);
}

TEST(Golden, DcValue) {
  ds::TransferValue z = ds::evalTransfer(goldenCircuit(), 0.0, 0.0);
  EXPECT_NEAR(z.re(0, 0), kR1 + kR2, 1e-10);
  EXPECT_NEAR(z.im(0, 0), 0.0, 1e-12);
}

TEST(Golden, RankPolicyParityOnGoldenModelSet) {
  // decisionEquals-style parity for the shared rank policy: the full
  // decision path of the golden benchmark-model set, captured BEFORE the
  // per-consumer hand-rolled singular-value cutoffs were unified onto
  // rankFromSingularValues (blocked-SVD PR). The unification — and the
  // blocked kernel itself — must not change a single verdict or
  // deflation count.
  struct Expected {
    std::size_t order;
    bool impulsive;
    std::size_t remImp, remNon, chains, properOrder;
  };
  const Expected table[] = {
      {25, true, 10, 12, 3, 14},  {25, false, 0, 16, 0, 17},
      {30, true, 10, 14, 3, 18},  {30, false, 0, 18, 0, 21},
      {35, true, 14, 16, 4, 20},  {35, false, 0, 22, 0, 24},
      {64, true, 26, 28, 7, 37},  {64, false, 0, 42, 0, 43},
      {100, true, 38, 42, 10, 60}, {100, false, 0, 66, 0, 67},
  };
  const api::PassivityAnalyzer analyzer;
  for (const Expected& x : table) {
    const ds::DescriptorSystem g =
        circuits::makeBenchmarkModel(x.order, x.impulsive);
    api::Result<api::AnalysisReport> r = analyzer.analyze(g);
    ASSERT_TRUE(r.ok()) << x.order << (x.impulsive ? " imp" : " plain");
    EXPECT_TRUE(r->passive) << x.order;
    EXPECT_EQ(r->removedImpulsive, x.remImp) << x.order;
    EXPECT_EQ(r->removedNondynamic, x.remNon) << x.order;
    EXPECT_EQ(r->impulsiveChains, x.chains) << x.order;
    EXPECT_EQ(r->properOrder, x.properOrder) << x.order;
    // The rank-policy health record is populated and comfortable: every
    // decision kept/dropped with a wide margin around the cutoff.
    EXPECT_GE(r->rankPolicy.decisions, 4u) << x.order;
    EXPECT_GT(r->rankPolicy.minKeptMargin, 10.0) << x.order;
    EXPECT_LT(r->rankPolicy.maxDroppedMargin, 0.1) << x.order;
    // Determinism: a re-run decisionEquals the first (rankPolicy fields
    // participate in decisionEquals).
    api::Result<api::AnalysisReport> again = analyzer.analyze(g);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(r->decisionEquals(*again)) << x.order;
  }
}

TEST(Golden, ReductionReproducesExactly) {
  // The proper part is order 1, so "reduction" to order >= 1 must be exact
  // including M0, M1 and the pole location.
  core::ReducedModel rom = core::reduceDescriptor(goldenCircuit(), 4);
  ASSERT_TRUE(rom.ok);
  EXPECT_EQ(rom.properOrder, 1u);
  EXPECT_EQ(rom.impulsiveRank, 1u);
  for (double w : {0.0, 1.0, 30.0}) {
    ds::TransferValue a = ds::evalTransfer(goldenCircuit(), 0.0, w);
    ds::TransferValue b = ds::evalTransfer(rom.sys, 0.0, w);
    EXPECT_NEAR(a.re(0, 0), b.re(0, 0), 1e-8) << "w=" << w;
    EXPECT_NEAR(a.im(0, 0), b.im(0, 0), 1e-8) << "w=" << w;
  }
}

// ---------------------------------------------------------------------
// Golden netlist corpus (tests/data/*.cir, path baked in by CMake as
// SHHPASS_TEST_DATA_DIR): real files through the full ingestion path —
// parseSpiceFile -> stampMna -> PassivityAnalyzer — with pinned verdicts.

std::string dataFile(const char* name) {
  return std::string(SHHPASS_TEST_DATA_DIR) + "/" + name;
}

api::AnalysisReport analyzeParsed(const circuits::ParsedNetlist& parsed) {
  const api::PassivityAnalyzer analyzer;
  api::Result<ds::DescriptorSystem> sys =
      api::stampNetlist(parsed.netlist);
  EXPECT_TRUE(sys.ok()) << sys.status().toString();
  api::Result<api::AnalysisReport> report = analyzer.analyze(*sys);
  EXPECT_TRUE(report.ok()) << report.status().toString();
  return *report;
}

TEST(GoldenNetlist, CapAtPortLadderIsPassiveAndImpulseFree) {
  circuits::ParsedNetlist parsed =
      circuits::parseSpiceFile(dataFile("cap_at_port_ladder.cir"));
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front().toString();
  EXPECT_EQ(parsed.netlist.numNodes(), 5);
  EXPECT_EQ(parsed.netlist.components().size(), 8u);
  ASSERT_EQ(parsed.netlist.ports().size(), 1u);
  // Engineering suffixes: 1p == 1pF == 1e-12, 1n == 1nH == 1e-9.
  EXPECT_EQ(parsed.netlist.components()[0].value, 1e-12);
  EXPECT_EQ(parsed.netlist.components()[3].value, 1e-12);
  EXPECT_EQ(parsed.netlist.components()[2].value, 1e-9);
  EXPECT_EQ(parsed.netlist.components()[5].value, 1e-9);

  const api::AnalysisReport report = analyzeParsed(parsed);
  EXPECT_TRUE(report.passive);
  EXPECT_EQ(report.verdict, api::ErrorCode::Ok);
  EXPECT_EQ(report.order, 7u);
  EXPECT_EQ(report.ports, 1u);
  EXPECT_EQ(report.properOrder, 5u);
  // The shunt cap AT the port keeps the driving point impulse-free.
  EXPECT_EQ(report.removedImpulsive, 0u);
  // min_w Re Z -> 0 as the port cap shorts at w -> infinity.
  core::PassivityMargin pm =
      core::passivityMargin(circuits::stampMna(parsed.netlist));
  ASSERT_TRUE(pm.defined);
  EXPECT_NEAR(pm.margin, 0.0, 1e-6);
}

TEST(GoldenNetlist, NonPassiveMutantNeedsActiveFlagAndFailsUnstable) {
  // Without the mutant flag the negative resistor is a typed parse error
  // on its exact line.
  circuits::ParsedNetlist rejected =
      circuits::parseSpiceFile(dataFile("nonpassive_mutant.cir"));
  ASSERT_FALSE(rejected.ok());
  ASSERT_EQ(rejected.errors.size(), 1u);
  EXPECT_EQ(rejected.errors[0].kind,
            circuits::SpiceErrorKind::NonPositiveValue);
  EXPECT_EQ(rejected.errors[0].line, 7u);

  circuits::SpiceParseOptions active;
  active.allowActiveElements = true;
  circuits::ParsedNetlist parsed =
      circuits::parseSpiceFile(dataFile("nonpassive_mutant.cir"), active);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front().toString();
  const api::AnalysisReport report = analyzeParsed(parsed);
  EXPECT_FALSE(report.passive);
  // Negative shunt R puts the finite RC pole in the right half plane.
  EXPECT_EQ(report.verdict, api::ErrorCode::UnstableFiniteModes);
  core::PassivityMargin pm =
      core::passivityMargin(circuits::stampMna(parsed.netlist));
  EXPECT_FALSE(pm.defined);
}

TEST(GoldenNetlist, MultiportTeeSymbolicNamesAndVerdict) {
  circuits::ParsedNetlist parsed =
      circuits::parseSpiceFile(dataFile("multiport_tee.cir"));
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front().toString();
  // Symbolic nodes resolve in first-appearance order above ground.
  const std::vector<std::string> expectedNames = {"0", "in", "mid", "out",
                                                  "tail"};
  EXPECT_EQ(parsed.nodeNames, expectedNames);
  // Ports in declaration order: in, out, mid.
  const std::vector<int> expectedPorts = {1, 3, 2};
  EXPECT_EQ(parsed.netlist.ports(), expectedPorts);

  const api::AnalysisReport report = analyzeParsed(parsed);
  EXPECT_TRUE(report.passive);
  EXPECT_EQ(report.verdict, api::ErrorCode::Ok);
  EXPECT_EQ(report.order, 5u);
  EXPECT_EQ(report.ports, 3u);
  EXPECT_EQ(report.removedImpulsive, 2u);
}

TEST(GoldenNetlist, CorpusRoundTripsThroughWriter) {
  for (const char* name : {"cap_at_port_ladder.cir", "multiport_tee.cir"}) {
    circuits::ParsedNetlist parsed = circuits::parseSpiceFile(dataFile(name));
    ASSERT_TRUE(parsed.ok()) << name;
    const std::string emitted = circuits::writeSpice(parsed.netlist);
    circuits::ParsedNetlist reparsed = circuits::parseSpice(emitted);
    ASSERT_TRUE(reparsed.ok()) << name;
    // Canonical emission is a fixed point: emit(parse(emit(n))) == emit(n).
    EXPECT_EQ(circuits::writeSpice(reparsed.netlist), emitted) << name;
    // And the reparsed netlist stamps the same decision input.
    const api::AnalysisReport a = analyzeParsed(parsed);
    const api::AnalysisReport b = analyzeParsed(reparsed);
    EXPECT_TRUE(a.decisionEquals(b)) << name;
  }
}

}  // namespace
}  // namespace shhpass
