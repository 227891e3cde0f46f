// Metrics registry: process-wide counters, gauges, and wall-time
// histograms behind relaxed atomics, with JSON and Prometheus-text
// exposition. This is the scrape surface the future `shhpass-serve`
// daemon mounts; today the bench and the trace_analysis example print
// it, and tests/test_obs.cpp pins counter exactness under concurrent
// runBatch workers.
//
// ## Contract
//
//   * Observation only: no counter, gauge, or histogram call may change
//     a decision anywhere in the library (pinned by the tracing-on ==
//     tracing-off decisionEquals tests).
//   * When metrics are off (the default), every mutation is a relaxed
//     atomic load and a branch — near-zero overhead.
//   * Counter increments are relaxed atomics: totals are exact once the
//     writing threads have joined (the registry is a statistic, never a
//     synchronization point). Histograms serialize on one mutex; they
//     are touched once per stage, not per kernel call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace shhpass::obs {

/// Metrics master switch (also gates the memory accountant's per-stage
/// scopes, obs/memory.hpp).
bool metricsEnabled();
void setMetricsEnabled(bool enabled);

/// The fixed counter set. Names (for exposition) in counterName().
enum class Counter : std::size_t {
  AnalysesStarted,          ///< analyzeImpl entered.
  AnalysesCompleted,        ///< Report produced (passive or verdict).
  AnalysesFailed,           ///< Operational error (no report).
  AnalysesNotPassive,       ///< Completed with a NOT-PASSIVE verdict.
  StagesExecuted,           ///< Stage traces recorded (incl. margin).
  BatchItems,               ///< Items executed by runBatch.
  GemmCalls,                ///< linalg::gemm entries.
  GemmFlops,                ///< 2*m*n*k summed over gemm calls.
  SvdCalls,                 ///< linalg::SVD factorizations.
  SchurCalls,               ///< linalg::realSchur calls.
  StaircaseCompressions,    ///< linalg::staircase compress() calls.
  RankDecisions,            ///< rankFromSingularValues policy decisions.
  ReorderRejectedSwaps,     ///< Schur-reorder swaps rejected as unsafe.
  kCount
};

/// Stable snake_case exposition name (e.g. "analyses_started").
const char* counterName(Counter c);

/// Add `delta` to a counter; no-op when metrics are off.
void counterAdd(Counter c, std::uint64_t delta = 1);
std::uint64_t counterValue(Counter c);

/// The fixed gauge set (instantaneous levels; may go up and down).
enum class Gauge : std::size_t {
  AnalysesInFlight,
  kCount
};
const char* gaugeName(Gauge g);
void gaugeAdd(Gauge g, std::int64_t delta);
std::int64_t gaugeValue(Gauge g);

/// Log-2 bucketed wall-time histogram observation for the family
/// `stage_seconds`, labeled by stage name (created on first use). Bucket
/// upper bounds are 1us * 2^i; see kHistogramBuckets.
void observeStageSeconds(std::string_view stage, double seconds);

inline constexpr std::size_t kHistogramBuckets = 30;  ///< + overflow.

/// One labeled histogram snapshot (JSON/Prometheus source data).
struct HistogramSnapshot {
  std::string label;    ///< Stage name.
  std::uint64_t count = 0;
  double sum = 0.0;     ///< Total observed seconds.
  /// Cumulative counts: buckets[i] = observations <= 1us * 2^i; the
  /// final element (index kHistogramBuckets) is the +Inf bucket == count.
  std::vector<std::uint64_t> buckets;
};
std::vector<HistogramSnapshot> snapshotStageSeconds();

/// Zero every counter, gauge, and histogram. Test-only: callers must
/// ensure no instrumented work is in flight.
void resetMetrics();

/// Compact JSON exposition: {"counters":{...},"gauges":{...},
/// "histograms":{"stage_seconds":{"<stage>":{...}}}}.
std::string metricsJson();

/// Prometheus text exposition (type comments + shhpass_-prefixed
/// families; histogram in the standard _bucket/_sum/_count form).
std::string metricsPrometheus();

}  // namespace shhpass::obs
