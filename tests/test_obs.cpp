// Tests of the telemetry subsystem (src/obs/): span well-formedness and
// per-thread monotonicity, metrics-counter exactness under concurrent
// runBatch workers, bit-parity of decisions with telemetry on vs off (the
// observation-only contract), exposition-format sanity, and memory
// accounting.
//
// Telemetry state is process-wide; every test begins by forcing the
// flags it needs and resetting the registries (gtest runs tests
// sequentially in one process, so there is no cross-test race — only
// cross-test residue, which the resets clear).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "api/shhpass.hpp"
#include "obs/clock.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using api::AnalysisReport;
using api::AnalysisRequest;
using api::AnalyzerOptions;
using api::PassivityAnalyzer;
using api::Result;

void telemetryAllOn() {
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  obs::setMemoryEnabled(true);
  obs::clearTrace();
  obs::resetMetrics();
}

void telemetryAllOff() {
  obs::setTraceEnabled(false);
  obs::setMetricsEnabled(false);
  obs::setMemoryEnabled(false);
}

ds::DescriptorSystem passiveLadder(std::size_t sections, bool capAtPort) {
  circuits::LadderOptions opt;
  opt.sections = sections;
  opt.capAtPort = capAtPort;
  return circuits::makeRlcLadder(opt);
}

/// Mixed golden batch: passive ladders of several sizes plus the two
/// non-passive fixtures (M1NotPsd and ProperPartNotPr exits).
std::vector<AnalysisRequest> goldenBatch() {
  std::vector<AnalysisRequest> reqs;
  for (std::size_t sections : {2, 3, 4, 5}) {
    AnalysisRequest r;
    r.id = "ladder-" + std::to_string(sections);
    r.system = passiveLadder(sections, sections % 2 == 0);
    reqs.push_back(std::move(r));
  }
  AnalysisRequest m1;
  m1.id = "indefinite-m1";
  m1.system = circuits::makeNonPassiveIndefiniteM1();
  reqs.push_back(std::move(m1));
  AnalysisRequest pr;
  pr.id = "negative-feedthrough";
  pr.system = circuits::makeNonPassiveNegativeFeedthrough(4);
  reqs.push_back(std::move(pr));
  return reqs;
}

// ------------------------------------------------------------ span tracer

TEST(ObsTrace, SpansAreWellFormedAndProperlyNestedPerThread) {
  telemetryAllOn();
  PassivityAnalyzer analyzer;
  Result<AnalysisReport> r = analyzer.analyze(passiveLadder(4, true));
  ASSERT_TRUE(r.ok()) << r.status().toString();

  const std::vector<obs::TraceEvent> events = obs::snapshotTrace();
  ASSERT_FALSE(events.empty());
  const std::uint64_t now = obs::monotonicNowNs();

  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> byTid;
  for (const obs::TraceEvent& e : events) {
    EXPECT_NE(e.name[0], '\0');
    EXPECT_NE(e.cat[0], '\0');
    EXPECT_LE(e.startNs + e.durNs, now);
    byTid[e.tid].push_back(&e);
  }

  // The sequential path puts the analyze root span, every stage span,
  // and any sampled kernel spans on one thread.
  bool sawAnalyze = false, sawStage = false;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "analyze") sawAnalyze = true;
    if (std::string(e.cat) == "stage") sawStage = true;
  }
  EXPECT_TRUE(sawAnalyze);
  EXPECT_TRUE(sawStage);

  // Within one thread, spans form a properly nested forest: sorted by
  // (start, widest-first), each interval either contains the next or is
  // disjoint from it — no partial overlap.
  for (auto& [tid, spans] : byTid) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                if (a->startNs != b->startNs) return a->startNs < b->startNs;
                return a->durNs > b->durNs;
              });
    std::vector<const obs::TraceEvent*> stack;
    for (const obs::TraceEvent* e : spans) {
      while (!stack.empty() &&
             e->startNs >= stack.back()->startNs + stack.back()->durNs)
        stack.pop_back();
      if (!stack.empty()) {
        // Partially overlapping spans on one thread would mean the
        // tracer recorded impossible interleavings.
        EXPECT_LE(e->startNs + e->durNs,
                  stack.back()->startNs + stack.back()->durNs)
            << "span " << e->name << " partially overlaps "
            << stack.back()->name << " on tid " << tid;
      }
      stack.push_back(e);
    }
    // Start stamps are monotone per thread by construction of the sort;
    // the raw emission order must also be monotone in END time for the
    // spans this thread itself emitted (completion order). That is
    // implied by proper nesting, so no separate assertion is needed.
  }
  telemetryAllOff();
}

TEST(ObsTrace, TraceJsonHasChromeTraceShape) {
  telemetryAllOn();
  PassivityAnalyzer analyzer;
  ASSERT_TRUE(analyzer.analyze(passiveLadder(3, true)).ok());
  const std::string json = obs::traceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stage\""), std::string::npos);
  telemetryAllOff();
}

TEST(ObsTrace, ClearTraceRetiresPublishedSpans) {
  telemetryAllOn();
  PassivityAnalyzer analyzer;
  ASSERT_TRUE(analyzer.analyze(passiveLadder(2, true)).ok());
  ASSERT_FALSE(obs::snapshotTrace().empty());
  obs::clearTrace();
  EXPECT_TRUE(obs::snapshotTrace().empty());
  telemetryAllOff();
}

// ------------------------------------------------------- metrics registry

TEST(ObsMetrics, CountersAreExactUnderConcurrentBatchWorkers) {
  const std::vector<AnalysisRequest> reqs = goldenBatch();

  for (std::size_t workers : {1u, 2u, 7u}) {
    telemetryAllOn();
    AnalyzerOptions opts;
    opts.threads = workers;
    PassivityAnalyzer analyzer(opts);
    std::vector<Result<AnalysisReport>> results = analyzer.runBatch(reqs);
    ASSERT_EQ(results.size(), reqs.size());
    for (const auto& r : results) ASSERT_TRUE(r.ok());

    // Expected stage totals come from the reports themselves: the trace
    // list accounts for every executed stage, so the counters must match
    // it exactly — that is the exactness claim.
    std::uint64_t expectStages = 0;
    for (const auto& r : results) expectStages += r->stages.size();

    using obs::Counter;
    EXPECT_EQ(obs::counterValue(Counter::AnalysesStarted), reqs.size())
        << "workers=" << workers;
    EXPECT_EQ(obs::counterValue(Counter::AnalysesCompleted), reqs.size());
    EXPECT_EQ(obs::counterValue(Counter::AnalysesFailed), 0u);
    EXPECT_EQ(obs::counterValue(Counter::AnalysesNotPassive), 2u);
    EXPECT_EQ(obs::counterValue(Counter::BatchItems), reqs.size())
        << "workers=" << workers;
    EXPECT_EQ(obs::counterValue(Counter::StagesExecuted), expectStages)
        << "workers=" << workers;
    EXPECT_EQ(obs::gaugeValue(obs::Gauge::AnalysesInFlight), 0);
    EXPECT_GT(obs::counterValue(Counter::GemmCalls), 0u);
    EXPECT_GT(obs::counterValue(Counter::GemmFlops),
              obs::counterValue(Counter::GemmCalls));
    EXPECT_GT(obs::counterValue(Counter::SvdCalls), 0u);
    EXPECT_GT(obs::counterValue(Counter::RankDecisions), 0u);
  }
  telemetryAllOff();
}

TEST(ObsMetrics, StageHistogramCoversEveryCanonicalStage) {
  telemetryAllOn();
  PassivityAnalyzer analyzer;
  ASSERT_TRUE(analyzer.analyze(passiveLadder(3, false)).ok());
  const std::vector<obs::HistogramSnapshot> hists =
      obs::snapshotStageSeconds();
  std::vector<std::string> labels;
  for (const obs::HistogramSnapshot& h : hists) {
    labels.push_back(h.label);
    EXPECT_EQ(h.count, 1u);
    EXPECT_GE(h.sum, 0.0);
    ASSERT_EQ(h.buckets.size(), obs::kHistogramBuckets + 1);
    // Cumulative buckets: non-decreasing, final == count.
    for (std::size_t i = 1; i < h.buckets.size(); ++i)
      EXPECT_GE(h.buckets[i], h.buckets[i - 1]);
    EXPECT_EQ(h.buckets.back(), h.count);
  }
  for (const char* stage :
       {"prerequisites", "build-phi", "impulse-deflation",
        "nondynamic-removal", "m1-extraction", "proper-part", "pr-test"}) {
    EXPECT_NE(std::find(labels.begin(), labels.end(), stage), labels.end())
        << "missing stage histogram: " << stage;
  }
  telemetryAllOff();
}

TEST(ObsMetrics, ExpositionFormatsAreSane) {
  telemetryAllOn();
  PassivityAnalyzer analyzer;
  ASSERT_TRUE(analyzer.analyze(passiveLadder(2, true)).ok());

  const std::string json = obs::metricsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"analyses_started\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"stage_seconds\":{"),
            std::string::npos);
  // Braces balance (cheap structural check; the CI validator does the
  // real parse via python).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const std::string prom = obs::metricsPrometheus();
  EXPECT_NE(prom.find("# TYPE shhpass_analyses_started_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("shhpass_analyses_started_total 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE shhpass_analyses_in_flight gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE shhpass_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("shhpass_stage_seconds_bucket{stage=\"pr-test\",le=\""),
            std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  telemetryAllOff();
}

// ------------------------------------------------------- memory accounting

TEST(ObsMemory, MemScopeSeesMatrixAllocations) {
  telemetryAllOn();
  const std::size_t before = obs::memLiveBytes();
  obs::MemScope scope;
  {
    linalg::Matrix a(64, 64, 1.0);
    EXPECT_GE(obs::memLiveBytes(), before + 64 * 64 * sizeof(double));
  }
  EXPECT_GE(scope.peakBytes(), before + 64 * 64 * sizeof(double));
  telemetryAllOff();
}

TEST(ObsMemory, StageTracesCarryPeakBytes) {
  telemetryAllOn();
  PassivityAnalyzer analyzer;
  Result<AnalysisReport> r = analyzer.analyze(passiveLadder(4, true));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->stages.empty());
  std::size_t peak = 0;
  for (const api::StageTrace& t : r->stages)
    peak = std::max(peak, t.peakBytes);
  EXPECT_GT(peak, 0u);
  // The report JSON carries the per-stage peaks and the diagnostics max.
  const std::string json = r->toJson();
  EXPECT_NE(json.find("\"peakBytes\":"), std::string::npos);
  telemetryAllOff();
}

// --------------------------------- observation-only (bit-parity) contract

TEST(ObsParity, TelemetryNeverChangesDecisions) {
  const std::vector<AnalysisRequest> reqs = goldenBatch();

  // Reference: telemetry hard-off, single-shot analyze().
  telemetryAllOff();
  PassivityAnalyzer ref;
  std::vector<Result<AnalysisReport>> baseline;
  for (const AnalysisRequest& rq : reqs) baseline.push_back(ref.analyze(rq));
  for (const auto& r : baseline) ASSERT_TRUE(r.ok());

  for (std::size_t workers : {1u, 2u, 7u}) {
    telemetryAllOn();
    AnalyzerOptions opts;
    opts.threads = workers;
    PassivityAnalyzer analyzer(opts);
    std::vector<Result<AnalysisReport>> results = analyzer.runBatch(reqs);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_TRUE(results[i]->decisionEquals(baseline[i].value()))
          << "telemetry-on decision drift: item " << reqs[i].id
          << " workers=" << workers;
    }
  }
  telemetryAllOff();
}

}  // namespace
}  // namespace shhpass
