// PassivityAnalyzer: the engine facade of the library. Setup (options),
// solve (analyze / runBatch), and reporting (AnalysisReport with JSON
// serialization of the full Fig.-1 decision path) live behind one object —
// the facade pattern of lgrtk's circuit module — instead of the historical
// scatter of per-module free functions.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "api/status.hpp"
#include "ds/descriptor.hpp"
#include "obs/telemetry.hpp"

namespace shhpass::api {

/// One unit of service work: a system to analyze plus optional per-request
/// option overrides and a caller-chosen correlation id.
struct AnalysisRequest {
  std::string id;                 ///< Echoed into the report (may be empty).
  ds::DescriptorSystem system;
  std::optional<core::PassivityOptions> options;  ///< Overrides analyzer
                                                  ///< defaults when set.
  /// When set, also compute the passivity margin (core/margin.hpp) to
  /// this absolute bisection tolerance, on the proper part the analysis
  /// itself extracted (no second Fig.-1 run). Must be finite and > 0,
  /// else the analysis fails with INVALID_ARGUMENT.
  std::optional<double> marginTol;
};

/// Analyzer-wide configuration.
struct AnalyzerOptions {
  core::PassivityOptions passivity;  ///< Default per-analysis options.
  std::size_t threads = 0;  ///< Worker threads for runBatch; 0 = hardware
                            ///< concurrency.
  /// Telemetry switches (span tracing and per-stage memory accounting —
  /// src/obs/). Applied process-wide at analyzer
  /// construction; the environment forces SHHPASS_TRACE=path and
  /// SHHPASS_METRICS=1 (read once, first analyzer wins) turn telemetry
  /// on regardless of these fields. Telemetry is observation only: it
  /// can never change a decision (pinned by tests/test_obs.cpp).
  obs::TelemetryOptions telemetry;
};

/// The engine facade. Immutable after construction, so one analyzer may
/// serve concurrent analyze() calls without locking; runBatch
/// parallelizes internally. Each report carries its own per-stage
/// record (AnalysisReport::stages).
class PassivityAnalyzer {
 public:
  PassivityAnalyzer() : PassivityAnalyzer(AnalyzerOptions{}) {}
  explicit PassivityAnalyzer(AnalyzerOptions options);

  const AnalyzerOptions& options() const { return options_; }

  /// Analyze one system with the analyzer-default options.
  Result<AnalysisReport> analyze(const ds::DescriptorSystem& system) const;

  /// Analyze one request (honoring its option overrides and id).
  Result<AnalysisReport> analyze(const AnalysisRequest& request) const;

  /// Analyze many systems on min(threads, requests.size()) workers.
  /// Items start largest order first (Graham's LPT list scheduling, so
  /// the longest analyses do not form the tail), each worker pulling the
  /// next item off one shared index; one worker is the calling thread.
  /// Every worker's gemms use the configured kernel width
  /// (linalg::setGemmThreads) on the one shared kernel pool.
  /// Results land in request order: element i decisionEquals what
  /// analyze(requests[i]) returns, for every worker count, and each
  /// report owns its StageTraces.
  std::vector<Result<AnalysisReport>> runBatch(
      std::span<const AnalysisRequest> requests) const;

 private:
  Result<AnalysisReport> analyzeImpl(const ds::DescriptorSystem& system,
                                     const core::PassivityOptions& opts,
                                     const std::string& id,
                                     std::optional<double> marginTol) const;

  AnalyzerOptions options_;
};

}  // namespace shhpass::api
