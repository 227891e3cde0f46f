#include "api/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <utility>

#include "api/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace shhpass::api {

bool AnalysisReport::decisionEquals(const AnalysisReport& other) const {
  if (id != other.id || passive != other.passive ||
      verdict != other.verdict || verdictMessage != other.verdictMessage ||
      failure != other.failure || order != other.order ||
      ports != other.ports || removedImpulsive != other.removedImpulsive ||
      removedNondynamic != other.removedNondynamic ||
      impulsiveChains != other.impulsiveChains ||
      properOrder != other.properOrder)
    return false;
  if (m1.rows() != other.m1.rows() || m1.cols() != other.m1.cols())
    return false;
  for (std::size_t i = 0; i < m1.rows(); ++i)
    for (std::size_t j = 0; j < m1.cols(); ++j)
      if (m1(i, j) != other.m1(i, j)) return false;
  if (reorder.swaps != other.reorder.swaps ||
      reorder.rejectedSwaps != other.reorder.rejectedSwaps ||
      reorder.maxResidual != other.reorder.maxResidual ||
      reorder.eigenvalueDrift != other.reorder.eigenvalueDrift ||
      reorder.standardizations != other.reorder.standardizations)
    return false;
  if (rankPolicy.decisions != other.rankPolicy.decisions ||
      rankPolicy.minKeptMargin != other.rankPolicy.minKeptMargin ||
      rankPolicy.maxDroppedMargin != other.rankPolicy.maxDroppedMargin)
    return false;
  if (staircase.compressions != other.staircase.compressions ||
      staircase.svdFallbacks != other.staircase.svdFallbacks ||
      staircase.diagonalFastPaths != other.staircase.diagonalFastPaths ||
      staircase.qrCompressions != other.staircase.qrCompressions ||
      staircase.skewTridiagonalizations !=
          other.staircase.skewTridiagonalizations ||
      staircase.reusedCompressions != other.staircase.reusedCompressions ||
      staircase.chainLength != other.staircase.chainLength ||
      staircase.truncatedSteps != other.staircase.truncatedSteps)
    return false;
  if (schur.multishift != other.schur.multishift ||
      schur.sweeps != other.schur.sweeps ||
      schur.aedWindows != other.schur.aedWindows ||
      schur.aedDeflations != other.schur.aedDeflations ||
      schur.shiftsApplied != other.schur.shiftsApplied ||
      schur.iterations != other.schur.iterations ||
      schur.structureRepairs != other.schur.structureRepairs)
    return false;
  if (warnings != other.warnings) return false;
  if (margin.has_value() != other.margin.has_value()) return false;
  if (margin && (margin->defined != other.margin->defined ||
                 margin->margin != other.margin->margin ||
                 margin->structuralDefect != other.margin->structuralDefect))
    return false;
  if (stages.size() != other.stages.size()) return false;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    if (stages[k].name != other.stages[k].name ||
        stages[k].status.code() != other.stages[k].status.code() ||
        stages[k].status.message() != other.stages[k].status.message())
      return false;
  }
  return true;
}

std::string AnalysisReport::toJson() const {
  json::Writer w;
  w.beginObject();
  w.key("id").value(id);
  w.key("passive").value(passive);
  w.key("verdict").value(errorCodeName(verdict));
  w.key("verdictMessage").value(verdictMessage);
  w.key("order").value(order);
  w.key("ports").value(ports);
  w.key("diagnostics").beginObject();
  w.key("removedImpulsive").value(removedImpulsive);
  w.key("removedNondynamic").value(removedNondynamic);
  w.key("impulsiveChains").value(impulsiveChains);
  w.key("properOrder").value(properOrder);
  {
    // Peak of the per-stage memory high-water marks (0 when the obs
    // memory accountant was off for the run).
    std::size_t peak = 0;
    for (const StageTrace& t : stages) peak = std::max(peak, t.peakBytes);
    w.key("peakBytes").value(peak);
  }
  w.key("m1").value(m1);
  w.key("reorder").beginObject();
  w.key("swaps").value(reorder.swaps);
  w.key("rejectedSwaps").value(reorder.rejectedSwaps);
  w.key("maxResidual").value(reorder.maxResidual);
  w.key("eigenvalueDrift").value(reorder.eigenvalueDrift);
  w.key("standardizations").value(reorder.standardizations);
  w.endObject();
  w.key("schur").beginObject();
  w.key("multishift").value(schur.multishift);
  w.key("sweeps").value(schur.sweeps);
  w.key("aedWindows").value(schur.aedWindows);
  w.key("aedDeflations").value(schur.aedDeflations);
  w.key("shiftsApplied").value(schur.shiftsApplied);
  w.key("iterations").value(schur.iterations);
  w.key("structureRepairs").value(schur.structureRepairs);
  w.endObject();
  w.key("rankPolicy").beginObject();
  w.key("decisions").value(rankPolicy.decisions);
  w.key("minKeptMargin").value(rankPolicy.minKeptMargin);
  w.key("maxDroppedMargin").value(rankPolicy.maxDroppedMargin);
  w.endObject();
  w.key("staircase").beginObject();
  w.key("compressions").value(staircase.compressions);
  w.key("svdFallbacks").value(staircase.svdFallbacks);
  w.key("diagonalFastPaths").value(staircase.diagonalFastPaths);
  w.key("qrCompressions").value(staircase.qrCompressions);
  w.key("skewTridiagonalizations").value(staircase.skewTridiagonalizations);
  w.key("reusedCompressions").value(staircase.reusedCompressions);
  w.key("chainLength").value(staircase.chainLength);
  w.key("truncatedSteps").value(staircase.truncatedSteps);
  w.endObject();
  if (margin) {
    w.key("margin").beginObject();
    w.key("defined").value(margin->defined);
    if (margin->defined)
      w.key("value").value(margin->margin);
    else
      w.key("structuralDefect")
          .value(errorCodeName(
              errorCodeFromFailureStage(margin->structuralDefect)));
    w.endObject();
  }
  w.endObject();
  w.key("warnings").beginArray();
  for (Warning warn : warnings) w.value(warningName(warn));
  w.endArray();
  w.key("stages").beginArray();
  for (const StageTrace& t : stages) {
    w.beginObject();
    w.key("name").value(t.name);
    w.key("status").value(errorCodeName(t.status.code()));
    if (!t.status.ok()) w.key("message").value(t.status.message());
    w.key("seconds").value(t.seconds);
    if (t.peakBytes > 0) w.key("peakBytes").value(t.peakBytes);
    w.endObject();
  }
  w.endArray();
  w.key("totalSeconds").value(totalSeconds);
  w.endObject();
  return w.str();
}

PassivityAnalyzer::PassivityAnalyzer(AnalyzerOptions options)
    : options_(std::move(options)) {
  // Telemetry: environment forces first (SHHPASS_TRACE / SHHPASS_METRICS,
  // read once process-wide), then this analyzer's own switches on top.
  // Both only ever turn telemetry ON — pure observation either way.
  obs::initTelemetryFromEnv();
  obs::applyTelemetryOptions(options_.telemetry);
}

void PassivityAnalyzer::setStageObserver(Pipeline::Observer observer) {
  std::lock_guard<std::mutex> lock(observerMu_);
  observer_ = std::move(observer);
}

Result<AnalysisReport> PassivityAnalyzer::analyze(
    const ds::DescriptorSystem& system) const {
  return analyzeImpl(system, options_.passivity, std::string(),
                     /*marginTol=*/std::nullopt, /*notifyObserver=*/true);
}

Result<AnalysisReport> PassivityAnalyzer::analyze(
    const AnalysisRequest& request) const {
  return analyzeImpl(request.system,
                     request.options ? *request.options : options_.passivity,
                     request.id, request.marginTol, /*notifyObserver=*/true);
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
  // throw. The observer is skipped: per-stage traces land in the report
  // instead. Each item writes only its own results[item] slot.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < byOrder.size();
         k = next.fetch_add(1)) {
      const std::size_t item = byOrder[k];
      const AnalysisRequest& request = requests[item];
      obs::counterAdd(obs::Counter::BatchItems);
      results[item] = analyzeImpl(
          request.system,
          request.options ? *request.options : options_.passivity,
          request.id, request.marginTol, /*notifyObserver=*/false);
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
    const std::string& id, std::optional<double> marginTol,
    bool notifyObserver) const {
  if (marginTol && !(std::isfinite(*marginTol) && *marginTol > 0.0))
    return Result<AnalysisReport>(
        Status::error(ErrorCode::InvalidArgument,
                      "AnalysisRequest::marginTol must be finite and > 0"));
  const Pipeline& pipeline = standardPipeline();
  obs::counterAdd(obs::Counter::AnalysesStarted);
  obs::gaugeAdd(obs::Gauge::AnalysesInFlight, 1);
  obs::ObsSpan span("analyze", "api");
  span.arg("order", static_cast<std::int64_t>(system.order()));

  PipelineState state;
  state.input = &system;
  state.options = opts;

  AnalysisReport report;
  report.id = id;

  // Snapshot the observer once per analysis under its lock; the copy
  // keeps notifying even if setStageObserver swaps the slot mid-run.
  Pipeline::Observer observer;
  if (notifyObserver) {
    std::lock_guard<std::mutex> lock(observerMu_);
    observer = observer_;
  }
  Status status = pipeline.run(state, &report.stages, observer);
  if (marginTol && (status.ok() || isVerdictCode(status.code()))) {
    // On this thread, from the proper part the pipeline just extracted.
    StageTrace margin = runTimedStage("margin", [&] {
      report.margin = core::marginOfRun(state.result, *marginTol,
                                          opts.imagTol);
      return Status::okStatus();
    });
    if (!margin.status.ok()) status = margin.status;
    report.stages.push_back(std::move(margin));
  }
  if (!status.ok() && !isVerdictCode(status.code())) {
    obs::counterAdd(obs::Counter::AnalysesFailed);
    obs::gaugeAdd(obs::Gauge::AnalysesInFlight, -1);
    return Result<AnalysisReport>(status);
  }

  report.passive = state.result.passive;
  report.verdict = status.code();
  report.verdictMessage =
      status.ok() ? core::failureStageName(core::FailureStage::None)
                  : status.message();
  report.failure = state.result.failure;
  report.order = system.order();
  report.ports = system.numInputs();
  report.removedImpulsive = state.result.removedImpulsive;
  report.removedNondynamic = state.result.removedNondynamic;
  report.impulsiveChains = state.result.impulsiveChains;
  report.m1 = state.result.m1;
  report.properOrder = state.result.properPart.lambda.rows();
  report.reorder = state.result.reorder;
  report.schur = state.result.schur;
  report.rankPolicy = state.result.rankPolicy;
  report.staircase = state.result.staircase;
  if (report.reorder.rejectedSwaps > 0)
    report.warnings.push_back(Warning::ReorderSwapRejected);
  for (const StageTrace& t : report.stages) report.totalSeconds += t.seconds;
  obs::counterAdd(obs::Counter::AnalysesCompleted);
  if (!report.passive) obs::counterAdd(obs::Counter::AnalysesNotPassive);
  obs::gaugeAdd(obs::Gauge::AnalysesInFlight, -1);
  return Result<AnalysisReport>(std::move(report));
}

}  // namespace shhpass::api
