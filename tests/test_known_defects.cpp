// Known-defect corpus: circuits whose right verdict is known from physics
// or by construction, run through the analyzer, with the list of cases it
// still gets wrong. Every case not on the list must get the right verdict;
// every listed case must keep exactly the code pinned for it. A listed
// verdict that changes in either direction fails the test, so a fix must
// delete its line on purpose and a regression cannot hide behind another
// wrong code.
//
// The corpus:
//   * the scaled-ladder grid (192 series-L / shunt-R||C ladders, passive
//     by physics): {3, 10} sections x port capacitor or not x
//     R in {1 mOhm, 1 Ohm, 1 kOhm} x L in {1 pH, 1 nH, 1 uH, 1 mH} x
//     C in {1 fF, 1 pF, 1 nF, 1 uF};
//   * the unit-valued ladders that end in NUMERICAL_FAILURE:
//     makeBenchmarkModel(5, true) and the one-section default ladder
//     without a port capacitor, one- and two-port (passive by physics);
//   * 2-state systems with a fast unstable pole p in {1e3, ..., 1e12},
//     E = I, A = diag(-1, p), B = [1; 1], C = [1, 1e-3], D = 10, whose
//     Popov function is positive everywhere (not passive);
//   * the fast-parasitic circuits (not passive): a 3-section ladder
//     (1 mH, 1 uF) plus a node with Cp || Rneg to ground, coupled to the
//     port node through Rc, for Rc in {1 kOhm, 1 MOhm, 1 GOhm},
//     Cp in {1 uF, 1 nF, 1 pF, 1 fF} and Rneg in {-1 Ohm, -1 kOhm};
//   * the non-passive mutants: negative shunt resistor and negative
//     feedthrough at 1-16 sections, indefinite M1, grade-3 chain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/analyzer.hpp"
#include "api/status.hpp"
#include "circuits/generators.hpp"
#include "circuits/mna.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

// The wrong code the analyzer returns today. It is the same in the
// optimized build (the AVX2 kernels' multiply-adds fused) and in the -O1
// sanitizer builds (unfused), so one code is pinned per case. Delete a
// line when its case is fixed. The rank and
// conditioning defects behind these codes are described in ROADMAP.md
// (items 1 and 2).
const std::map<std::string, std::string> kKnownDefects = {
    {"s3-nocap-R0.001-L1e-12-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-12-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-12-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-09-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-09-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-09-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-09-C1e-06", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-06-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-06-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-06-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L1e-06-C1e-06", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L0.001-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L0.001-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L0.001-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R0.001-L0.001-C1e-06", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-12-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-12-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-12-C1e-06", "LOSSLESS_AXIS_MODES"},
    {"s3-nocap-R1000-L1e-09-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-09-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-09-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-06-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-06-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-06-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L1e-06-C1e-06", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L0.001-C1e-15", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L0.001-C1e-12", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L0.001-C1e-09", "NUMERICAL_FAILURE"},
    {"s3-nocap-R1000-L0.001-C1e-06", "NUMERICAL_FAILURE"},
    {"s3-cap-R1000-L1e-12-C1e-06", "LOSSLESS_AXIS_MODES"},
    {"s10-nocap-R0.001-L1e-12-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-12-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-12-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-09-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-09-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-09-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-09-C1e-06", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-06-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-06-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-06-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L1e-06-C1e-06", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L0.001-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L0.001-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L0.001-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R0.001-L0.001-C1e-06", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-12-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-12-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-12-C1e-06", "LOSSLESS_AXIS_MODES"},
    {"s10-nocap-R1000-L1e-09-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-09-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-09-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-06-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-06-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-06-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L1e-06-C1e-06", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L0.001-C1e-15", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L0.001-C1e-12", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L0.001-C1e-09", "NUMERICAL_FAILURE"},
    {"s10-nocap-R1000-L0.001-C1e-06", "NUMERICAL_FAILURE"},
    {"s10-cap-R1000-L1e-12-C1e-06", "LOSSLESS_AXIS_MODES"},
    {"bench5-impulsive", "NUMERICAL_FAILURE"},
    {"ladder1-oneport", "NUMERICAL_FAILURE"},
    {"ladder1-twoport", "NUMERICAL_FAILURE"},
};

struct Case {
  std::string id;
  ds::DescriptorSystem system;
  bool passive;
};

// The default 3-section ladder (1 mH, 1 uF) with a parasitic node:
// Cp || Rneg to ground, coupled to the port node through Rc.
ds::DescriptorSystem fastParasitic(double rc, double cp, double rneg) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  const circuits::Netlist ladder = circuits::makeRlcLadderNetlist(opt);
  const int node = ladder.numNodes() + 1;
  circuits::Netlist net(node);
  for (const circuits::Component& comp : ladder.components())
    net.addComponent(comp);
  for (int port : ladder.ports()) net.addPort(port);
  net.addResistor(ladder.ports().front(), node, rc);
  net.addCapacitor(node, 0, cp);
  net.addResistor(node, 0, rneg);
  return circuits::stampMna(net);
}

std::vector<Case> corpus() {
  std::vector<Case> cases;
  for (testing::GridLadder& g : testing::scaledLadderGrid())
    cases.push_back({std::move(g.id), std::move(g.system), true});
  cases.push_back(
      {"bench5-impulsive", circuits::makeBenchmarkModel(5, true), true});
  for (bool twoPort : {false, true}) {
    circuits::LadderOptions opt;
    opt.sections = 1;
    opt.twoPort = twoPort;
    cases.push_back({twoPort ? "ladder1-twoport" : "ladder1-oneport",
                     circuits::makeRlcLadder(opt), true});
  }
  for (int k = 3; k <= 12; ++k) {
    ds::DescriptorSystem toy;
    toy.e = linalg::Matrix::identity(2);
    toy.a = linalg::Matrix{{-1.0, 0.0}, {0.0, std::pow(10.0, k)}};
    toy.b = linalg::Matrix{{1.0}, {1.0}};
    toy.c = linalg::Matrix{{1.0, 1e-3}};
    toy.d = linalg::Matrix{{10.0}};
    cases.push_back({"toy-pole1e" + std::to_string(k), toy, false});
  }
  for (double rc : {1e3, 1e6, 1e9})
    for (double cp : {1e-6, 1e-9, 1e-12, 1e-15})
      for (double rneg : {-1.0, -1e3}) {
        char id[64];
        std::snprintf(id, sizeof id, "parasitic-Rc%g-Cp%g-Rneg%g", rc, cp,
                      rneg);
        cases.push_back({id, fastParasitic(rc, cp, rneg), false});
      }
  for (std::size_t sections = 1; sections <= 16; ++sections) {
    cases.push_back({"negR-s" + std::to_string(sections),
                     circuits::makeNonPassiveNegativeResistor(sections),
                     false});
    cases.push_back({"negD-s" + std::to_string(sections),
                     circuits::makeNonPassiveNegativeFeedthrough(sections),
                     false});
  }
  cases.push_back(
      {"indefinite-m1", circuits::makeNonPassiveIndefiniteM1(), false});
  cases.push_back(
      {"grade3", circuits::makeNonPassiveHigherOrderImpulse(), false});
  return cases;
}

TEST(KnownDefects, VerdictsMatchTheKnownDefectList) {
  const api::PassivityAnalyzer analyzer;
  std::size_t listed = 0;
  for (const Case& c : corpus()) {
    SCOPED_TRACE(c.id);
    const api::Result<api::AnalysisReport> r = analyzer.analyze(c.system);
    const api::ErrorCode code = r.ok() ? r->verdict : r.status().code();
    const std::string name = api::errorCodeName(code);
    const auto known = kKnownDefects.find(c.id);
    if (known != kKnownDefects.end()) {
      ++listed;
      EXPECT_EQ(name, known->second)
          << "a known-defect verdict changed; if the case is now right, "
             "delete its line from kKnownDefects";
    } else if (c.passive) {
      EXPECT_EQ(name, "OK");
    } else {
      EXPECT_TRUE(api::isVerdictCode(code) && code != api::ErrorCode::Ok)
          << name;
    }
  }
  // Every listed id names a corpus case (no stale lines).
  EXPECT_EQ(listed, kKnownDefects.size());
}

}  // namespace
}  // namespace shhpass
