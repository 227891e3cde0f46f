// Property tests for the parametric sweep driver (circuits/sweep.hpp),
// seeded and bit-reproducible:
//
//  * re-stamped requests — every point's descriptor is bit-for-bit
//    stampMna of the netlist with that point's values, and
//    Netlist::setComponentValue rejects values MNA cannot stamp;
//  * slot-exact batch parity — runSweep through runBatch decisionEquals
//    a sequential per-point analyze() loop for worker counts {1, 2, 7},
//    and the three batch runs agree with each other slot by slot,
//    margins bitwise included and equal to a standalone
//    core::passivityMargin per point;
//  * sweep expansion structure — row-major cross product, log-spaced
//    decades, typed rejections of malformed specs.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/shhpass.hpp"
#include "circuits/mna.hpp"
#include "circuits/sweep.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using circuits::Netlist;
using circuits::SweepSpec;
using testing::Xorshift;

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expectBitIdenticalSystems(const ds::DescriptorSystem& a,
                               const ds::DescriptorSystem& b,
                               const std::string& what) {
  EXPECT_TRUE(testing::bitIdentical(a.e, b.e)) << what << ": E";
  EXPECT_TRUE(testing::bitIdentical(a.a, b.a)) << what << ": A";
  EXPECT_TRUE(testing::bitIdentical(a.b, b.b)) << what << ": B";
  EXPECT_TRUE(testing::bitIdentical(a.c, b.c)) << what << ": C";
  EXPECT_TRUE(testing::bitIdentical(a.d, b.d)) << what << ": D";
}

TEST(SweepRandom, SetComponentValueRejectsBadUpdates) {
  Xorshift gen(7);
  Netlist net = testing::randomConnectedNetlist(gen);
  const ds::DescriptorSystem stamped = circuits::stampMna(net);
  EXPECT_THROW(net.setComponentValue(net.components().size(), 1.0),
               std::invalid_argument);
  for (double bad : {0.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const double before = net.components()[0].value;
    EXPECT_THROW(net.setComponentValue(0, bad), std::invalid_argument) << bad;
    // A rejected update leaves the netlist untouched.
    EXPECT_EQ(net.components()[0].value, before);
  }
  expectBitIdenticalSystems(circuits::stampMna(net), stamped,
                            "after rejected updates");
  // A portless netlist cannot be stamped, so it cannot be swept either.
  Netlist portless(2);
  portless.addResistor(1, 2, 1.0).addResistor(2, 0, 1.0);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 2});
  EXPECT_THROW(circuits::buildSweepRequests(portless, spec),
               std::invalid_argument);
}

TEST(SweepRandom, ExpandSweepIsRowMajorLogSpaced) {
  Netlist net(2);
  net.addResistor(1, 2, 10.0).addCapacitor(2, 0, 1.0).addPort(1);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 3});  // R: 1, 10, 100
  spec.parameters.push_back({1, 2.0, 0.0, 2});  // C: 0.01, 1
  const std::vector<std::vector<double>> points =
      circuits::expandSweep(net, spec);
  ASSERT_EQ(points.size(), 6u);
  // Last parameter varies fastest (row-major).
  const double rAxis[] = {1.0, 10.0, 100.0};
  const double cAxis[] = {0.01, 1.0};
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_NEAR(points[p][0], rAxis[p / 2], 1e-12) << p;
    EXPECT_NEAR(points[p][1], cAxis[p % 2], 1e-12) << p;
  }
  // A single-point axis sits exactly at the nominal value.
  SweepSpec nominal;
  nominal.parameters.push_back({1, 3.0, 3.0, 1});
  EXPECT_EQ(circuits::expandSweep(net, nominal)[0][0], 1.0);

  SweepSpec bad;
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
  bad.parameters.push_back({9, 1.0, 1.0, 2});
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
  bad.parameters[0] = {0, 1.0, 1.0, 0};
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
  bad.parameters[0] = {0, 1.0, 1.0, 2};
  bad.parameters.push_back({0, 1.0, 1.0, 2});
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
}

TEST(SweepRandom, RequestsCarryRestampedSystemsAndStableIds) {
  Xorshift gen(0x5eed);
  const Netlist net = testing::randomConnectedNetlist(gen);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 3});
  spec.parameters.push_back({net.components().size() - 1, 1.0, 1.0, 3});
  const std::vector<std::vector<double>> points =
      circuits::expandSweep(net, spec);
  const std::vector<api::AnalysisRequest> requests =
      circuits::buildSweepRequests(net, spec);
  ASSERT_EQ(requests.size(), points.size());
  EXPECT_EQ(requests[0].id, "sweep-000001");
  EXPECT_EQ(requests.back().id, "sweep-000009");
  for (std::size_t p = 0; p < points.size(); ++p) {
    // Oracle: rebuild the netlist with this point's values and stamp it
    // from scratch; the request must match bitwise.
    Netlist modified = net;
    for (std::size_t k = 0; k < spec.parameters.size(); ++k)
      modified.setComponentValue(spec.parameters[k].component,
                                 points[p][k]);
    expectBitIdenticalSystems(requests[p].system,
                              circuits::stampMna(modified),
                              "point " + std::to_string(p));
  }
}

TEST(SweepRandom, BatchSweepDecisionEqualsSequentialOracle) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    Xorshift gen(0xdecade0000ull + seed);
    const Netlist net = testing::randomConnectedNetlist(gen, 10);
    SweepSpec spec;
    spec.computeMargin = true;  // margins are part of the decision record
    const std::size_t axes = 1 + gen.pick(2);
    for (std::size_t k = 0; k < axes; ++k)
      spec.parameters.push_back(
          {gen.pick(net.components().size()), gen.uniform(0.5, 2.0),
           gen.uniform(0.5, 2.0), 3 + gen.pick(2)});
    // Duplicate axes are rejected; redraw the second axis if needed.
    if (axes == 2 &&
        spec.parameters[0].component == spec.parameters[1].component)
      spec.parameters[1].component =
          (spec.parameters[1].component + 1) % net.components().size();

    std::vector<circuits::SweepResult> results;
    for (std::size_t workers : {1u, 2u, 7u}) {
      api::AnalyzerOptions options;
      options.threads = workers;
      const api::PassivityAnalyzer analyzer(options);
      circuits::SweepResult result =
          circuits::runSweep(net, spec, analyzer);
      // Slot-exact sequential parity on the same analyzer.
      const std::size_t mismatches =
          circuits::verifySweepSequential(net, spec, analyzer, result);
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(result.decisionMismatches, 0u);
      results.push_back(std::move(result));
    }
    // And the batch runs agree with each other, slot by slot.
    for (std::size_t r = 1; r < results.size(); ++r) {
      ASSERT_EQ(results[r].points.size(), results[0].points.size());
      for (std::size_t p = 0; p < results[0].points.size(); ++p) {
        const circuits::SweepPointResult& a = results[0].points[p];
        const circuits::SweepPointResult& b = results[r].points[p];
        ASSERT_EQ(a.ok, b.ok) << "seed " << seed << " point " << p;
        if (a.ok)
          EXPECT_TRUE(a.report.decisionEquals(b.report))
              << "seed " << seed << " point " << p << " leg " << r;
        EXPECT_EQ(a.marginDefined, b.marginDefined);
        EXPECT_TRUE(sameBits(a.margin, b.margin))
            << "seed " << seed << " point " << p << " leg " << r;
      }
    }
    // In-batch margins equal the standalone wrapper's, point by point.
    const std::vector<api::AnalysisRequest> requests =
        circuits::buildSweepRequests(net, spec);
    for (std::size_t p = 0; p < requests.size(); ++p) {
      const circuits::SweepPointResult& point = results[0].points[p];
      if (!point.ok) continue;
      ASSERT_TRUE(point.report.margin.has_value());
      const core::PassivityMargin standalone =
          core::passivityMargin(requests[p].system, spec.marginTol);
      EXPECT_EQ(point.marginDefined, standalone.defined)
          << "seed " << seed << " point " << p;
      EXPECT_EQ(point.report.margin->structuralDefect,
                standalone.structuralDefect);
      EXPECT_TRUE(sameBits(point.margin, standalone.margin))
          << "seed " << seed << " point " << p << ": " << point.margin
          << " vs " << standalone.margin;
    }
  }
}

TEST(SweepRandom, MarginMapJsonAndPassiveAccounting) {
  // A known-passive one-port: every point of a modest sweep must be
  // passive with a defined, non-negative (up to bisection tol) margin,
  // and the JSON artifact must carry the headline counters.
  Netlist net(2);
  net.addInductor(1, 2, 0.5)
      .addCapacitor(2, 0, 0.25)
      .addResistor(2, 0, 2.0)
      .addPort(1);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 3});
  spec.parameters.push_back({2, 1.0, 1.0, 3});
  const api::PassivityAnalyzer analyzer;
  circuits::SweepResult result = circuits::runSweep(net, spec, analyzer);
  ASSERT_EQ(result.points.size(), 9u);
  EXPECT_EQ(result.passiveCount, 9u);
  for (const circuits::SweepPointResult& p : result.points) {
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(p.report.passive);
    EXPECT_TRUE(p.marginDefined);
    EXPECT_GE(p.margin, -1e-4);
  }
  EXPECT_EQ(circuits::verifySweepSequential(net, spec, analyzer, result),
            0u);
  const std::string json = circuits::sweepMarginMapJson(net, spec, result);
  EXPECT_NE(json.find("\"schema\":\"shhpass-margin-map\""),
            std::string::npos);
  EXPECT_NE(json.find("\"passiveCount\":9"), std::string::npos);
  EXPECT_NE(json.find("\"decisionMismatches\":0"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"sweep-000001\""), std::string::npos);
}

}  // namespace
}  // namespace shhpass
