#include "api/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace shhpass::api {

PassivityAnalyzer::PassivityAnalyzer(AnalyzerOptions options)
    : options_(std::move(options)) {
  // Telemetry: environment forces first (SHHPASS_TRACE / SHHPASS_METRICS,
  // read once process-wide), then this analyzer's own switches on top.
  // Both only ever turn telemetry ON — pure observation either way.
  obs::initTelemetryFromEnv();
  obs::applyTelemetryOptions(options_.telemetry);
}

Result<AnalysisReport> PassivityAnalyzer::analyze(
    const ds::DescriptorSystem& system) const {
  return analyzeImpl(system, options_.passivity, std::string(),
                     /*marginTol=*/std::nullopt);
}

Result<AnalysisReport> PassivityAnalyzer::analyze(
    const AnalysisRequest& request) const {
  return analyzeImpl(request.system,
                     request.options ? *request.options : options_.passivity,
                     request.id, request.marginTol);
}

std::vector<Result<AnalysisReport>> PassivityAnalyzer::runBatch(
    std::span<const AnalysisRequest> requests) const {
  std::vector<Result<AnalysisReport>> results(
      requests.size(),
      Result<AnalysisReport>(
          Status::error(ErrorCode::Internal, "not executed")));
  if (requests.empty()) return results;
  std::size_t threads = options_.threads;
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(threads, requests.size());

  // Largest order first (LPT); the stable sort keeps request order among
  // equal orders.
  std::vector<std::size_t> byOrder(requests.size());
  std::iota(byOrder.begin(), byOrder.end(), std::size_t{0});
  std::stable_sort(byOrder.begin(), byOrder.end(),
                   [&requests](std::size_t a, std::size_t b) {
                     return requests[a].system.order() >
                            requests[b].system.order();
                   });

  // analyzeImpl is exception-free (Status-based), so a worker cannot
  // throw. Each item writes only its own results[item] slot.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < byOrder.size();
         k = next.fetch_add(1)) {
      const std::size_t item = byOrder[k];
      const AnalysisRequest& request = requests[item];
      results[item] = analyzeImpl(
          request.system,
          request.options ? *request.options : options_.passivity,
          request.id, request.marginTol);
    }
  };
  {
    // The calling thread is one of the workers; std::jthread joins the
    // others on destruction, on every exit path.
    std::vector<std::jthread> crew;
    crew.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) crew.emplace_back(worker);
    worker();
  }
  return results;
}

Result<AnalysisReport> PassivityAnalyzer::analyzeImpl(
    const ds::DescriptorSystem& system, const core::PassivityOptions& opts,
    const std::string& id, std::optional<double> marginTol) const {
  if (marginTol && !(std::isfinite(*marginTol) && *marginTol > 0.0))
    return Result<AnalysisReport>(
        Status::error(ErrorCode::InvalidArgument,
                      "AnalysisRequest::marginTol must be finite and > 0"));
  obs::ObsSpan span("analyze", "api");
  span.arg("order", static_cast<std::int64_t>(system.order()));

  PipelineState state;
  state.input = &system;
  state.options = opts;
  Status status = runPipeline(state);
  AnalysisReport& report = state.report;
  if (marginTol && (status.ok() || isVerdictCode(status.code()))) {
    // On this thread, from the proper part the pipeline just extracted.
    StageTrace margin = runTimedStage("margin", [&] {
      report.margin = core::marginOfRun(report.failure, state.properPart,
                                        *marginTol, opts.imagTol);
      return Status::okStatus();
    });
    if (!margin.status.ok()) status = margin.status;
    report.totalSeconds += margin.seconds;
    report.stages.push_back(std::move(margin));
  }
  if (!status.ok() && !isVerdictCode(status.code()))
    return Result<AnalysisReport>(status);

  report.id = id;
  return Result<AnalysisReport>(std::move(report));
}

}  // namespace shhpass::api
