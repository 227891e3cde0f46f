// Determinism-first harness for PassivityAnalyzer::runBatch. The
// library-wide contract under test: scheduling NEVER changes decisions. A
// seeded mixed-order batch (passive, non-passive, and error-returning
// models interleaved) must produce bitwise decision-equal reports for
// every worker count and under 4x oversubscription, with report ordering
// pinned to request order whatever order the items ran in. The suite
// also pins the largest-order-first start order.
//
// Like test_thread_pool_stress.cpp, every test doubles as a TSan target
// (the `tsan` CI job runs this suite with SHHPASS_GEMM_THREADS=3 and full
// telemetry, so the kernel pool, the batch workers and the tracer all
// engage at once).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "api/analyzer.hpp"
#include "circuits/generators.hpp"
#include "obs/trace.hpp"

namespace shhpass {
namespace {

using api::AnalysisReport;
using api::AnalysisRequest;
using api::AnalyzerOptions;
using api::PassivityAnalyzer;
using api::Result;

/// A descriptor system whose validate() throws (inconsistent block
/// dimensions), so analysis returns an operational-error Result — the
/// scheduler must carry errors through without disturbing neighbors.
ds::DescriptorSystem malformedSystem() {
  ds::DescriptorSystem sys;
  sys.e = linalg::Matrix::identity(3);
  sys.a = linalg::Matrix::identity(2);  // mismatched with e
  sys.b = linalg::Matrix(2, 1);
  sys.c = linalg::Matrix(1, 2);
  sys.d = linalg::Matrix(1, 1);
  return sys;
}

/// The seeded mixed batch: orders 40-300, passive benchmark models,
/// random RLC networks, every non-passive mutant family, and malformed
/// (error-returning) items interleaved at fixed positions.
std::vector<AnalysisRequest> mixedBatch() {
  std::vector<AnalysisRequest> batch;
  auto add = [&batch](std::string id, ds::DescriptorSystem sys) {
    AnalysisRequest r;
    r.id = std::move(id);
    r.system = std::move(sys);
    batch.push_back(std::move(r));
  };
  add("bench-40", circuits::makeBenchmarkModel(40, true));
  add("bench-56", circuits::makeBenchmarkModel(56, false));
  add("bad-early", malformedSystem());
  add("rlc-a", circuits::makeRandomRlcNetwork(24, 7u, true));
  add("neg-feedthrough", circuits::makeNonPassiveNegativeFeedthrough(5));
  add("bench-224", circuits::makeBenchmarkModel(224, true));
  add("indefinite-m1", circuits::makeNonPassiveIndefiniteM1());
  add("bench-96", circuits::makeBenchmarkModel(96, false));
  add("higher-order", circuits::makeNonPassiveHigherOrderImpulse());
  add("bad-late", malformedSystem());
  add("bench-300", circuits::makeBenchmarkModel(300, false));
  add("neg-resistor", circuits::makeNonPassiveNegativeResistor(6));
  add("bench-120", circuits::makeBenchmarkModel(120, true));
  add("rlc-b", circuits::makeRandomRlcNetwork(30, 11u, false));
  return batch;
}

/// The shared batch and its single-shot reference reports (the oracle
/// every batch configuration is compared against), computed once per
/// process — several tests reuse them, and the order-300 item makes
/// recomputation the dominant cost of this suite.
const std::vector<AnalysisRequest>& sharedBatch() {
  static const std::vector<AnalysisRequest> kBatch = mixedBatch();
  return kBatch;
}

const std::vector<Result<AnalysisReport>>& sequentialOracle() {
  static const std::vector<Result<AnalysisReport>> kOracle = [] {
    const PassivityAnalyzer analyzer;
    std::vector<Result<AnalysisReport>> out;
    out.reserve(sharedBatch().size());
    for (const AnalysisRequest& r : sharedBatch())
      out.push_back(analyzer.analyze(r));
    return out;
  }();
  return kOracle;
}

/// Bitwise decision parity between a batch result vector and the oracle:
/// same ok-ness per slot, same error codes for failures, decisionEquals
/// for successes. Report ordering is BY SLOT, so this also pins that
/// results land in request order whatever order the items ran in.
void expectParity(const std::vector<Result<AnalysisReport>>& got,
                  const std::vector<Result<AnalysisReport>>& oracle,
                  const std::string& label) {
  ASSERT_EQ(got.size(), oracle.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), oracle[i].ok()) << label << " item " << i;
    if (!got[i].ok()) {
      EXPECT_EQ(got[i].status().code(), oracle[i].status().code())
          << label << " item " << i;
      continue;
    }
    EXPECT_TRUE(got[i]->decisionEquals(*oracle[i]))
        << label << " item " << i << " (" << got[i]->id << ")";
  }
}

// ------------------------------------------------------------ batch parity

TEST(SchedulerRandom, ParityAcrossWorkerCountsAndOversubscription) {
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  const std::vector<Result<AnalysisReport>>& oracle = sequentialOracle();

  std::vector<std::size_t> workerCounts = {1, 2, 3, 7};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workerCounts.push_back(4 * hw);  // 4x oversubscription

  for (std::size_t workers : workerCounts) {
    AnalyzerOptions opts;
    opts.threads = workers;
    const PassivityAnalyzer analyzer(opts);
    const std::vector<Result<AnalysisReport>> results =
        analyzer.runBatch(batch);
    expectParity(results, oracle,
                 "workers=" + std::to_string(workers));
  }
}

TEST(SchedulerRandom, TraceOwnershipPinsCanonicalStageOrderPerItem) {
  // Regression: concurrent runBatch must never interleave or
  // reorder StageTraces across items — each report owns its traces, and
  // their order is the canonical Fig.-1 stage order, identical to the
  // single-shot run of the same request.
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  const std::vector<Result<AnalysisReport>>& oracle = sequentialOracle();

  AnalyzerOptions opts;
  opts.threads = 7;
  const PassivityAnalyzer analyzer(opts);
  const std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);

  const char* const kCanonical[] = {
      "prerequisites",  "build-phi",   "impulse-deflation",
      "nondynamic-removal", "m1-extraction", "proper-part", "pr-test"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    const AnalysisReport& r = *results[i];
    ASSERT_LE(r.stages.size(), std::size(kCanonical)) << i;
    for (std::size_t k = 0; k < r.stages.size(); ++k)
      EXPECT_EQ(r.stages[k].name, kCanonical[k]) << i << " stage " << k;
    ASSERT_TRUE(oracle[i].ok()) << i;
    ASSERT_EQ(r.stages.size(), oracle[i]->stages.size()) << i;
    for (std::size_t k = 0; k < r.stages.size(); ++k) {
      EXPECT_EQ(r.stages[k].status.code(),
                oracle[i]->stages[k].status.code())
          << i << " stage " << k;
    }
  }
}

TEST(SchedulerRandom, SingleWorkerStartsLargestOrderFirst) {
  // LPT start order: on one worker the items run one after another on the
  // calling thread, so the "analyze" spans (emitted when each analysis
  // ends) come out in execution order, and their order args must not
  // increase.
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  const bool wasTracing = obs::traceEnabled();
  AnalyzerOptions opts;
  opts.threads = 1;
  opts.telemetry.trace = true;
  const PassivityAnalyzer analyzer(opts);
  obs::clearTrace();
  const std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);
  const std::vector<obs::TraceEvent> events = obs::snapshotTrace();
  obs::setTraceEnabled(wasTracing);
  ASSERT_EQ(results.size(), batch.size());

  std::vector<std::int64_t> orders;
  for (const obs::TraceEvent& e : events)
    if (std::strcmp(e.name, "analyze") == 0) orders.push_back(e.argValue);
  ASSERT_EQ(orders.size(), batch.size());
  for (std::size_t k = 1; k < orders.size(); ++k)
    EXPECT_GE(orders[k - 1], orders[k]) << "position " << k;
  EXPECT_EQ(orders.front(), 300);
}

}  // namespace
}  // namespace shhpass
