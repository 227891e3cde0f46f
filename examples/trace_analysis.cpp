// Telemetry walkthrough: run a mixed batch through the PassivityAnalyzer
// with the full observability surface enabled (span tracing + metrics
// registry + memory accounting — src/obs/), then
//
//   * write the span timeline as Chrome trace-event JSON (load it at
//     chrome://tracing or https://ui.perfetto.dev, or validate it with
//     tools/validate_trace_json.py),
//   * print the metrics registry in both exposition formats (JSON and
//     Prometheus text), and
//   * print the per-stage memory high-water marks the accountant
//     recorded into each report's StageTraces.
//
//   $ ./trace_analysis [trace.json]
//
// Telemetry is observation only: the dark re-run at the bottom checks
// decisionEquals against every telemetry-on report. The same switches
// can be forced process-wide with SHHPASS_TRACE=path SHHPASS_METRICS=1
// on ANY binary linked against the library — no code changes needed.
#include <cstdio>
#include <string>
#include <vector>

#include "api/shhpass.hpp"

int main(int argc, char** argv) {
  using namespace shhpass;
  const std::string tracePath = argc > 1 ? argv[1] : "trace.json";

  // Mixed workload: passive RLC ladders of growing order, alternately
  // with and without a capacitor at the port.
  std::vector<api::AnalysisRequest> batch;
  for (std::size_t k = 0; k < 6; ++k) {
    circuits::LadderOptions opt;
    opt.sections = 4 + 2 * k;
    opt.capAtPort = (k % 2 == 0);
    api::AnalysisRequest req;
    req.id = "ladder-" + std::to_string(k);
    req.system = circuits::makeRlcLadder(opt);
    batch.push_back(std::move(req));
  }

  api::AnalyzerOptions options;
  options.telemetry.trace = true;       // span tracer on
  options.telemetry.metrics = true;     // counters/gauges/histograms +
                                        // memory accounting on
  options.threads = 2;
  const api::PassivityAnalyzer analyzer(options);

  std::vector<api::Result<api::AnalysisReport>> reports =
      analyzer.runBatch(batch);
  for (const auto& r : reports)
    if (!r.ok()) {
      std::printf("analysis failed: %s\n", r.status().toString().c_str());
      return 1;
    }

  // --- Span timeline -------------------------------------------------
  const std::vector<obs::TraceEvent> spans = obs::snapshotTrace();
  if (!obs::writeTraceJson(tracePath)) {
    std::printf("cannot write %s\n", tracePath.c_str());
    return 1;
  }
  std::printf("wrote %zu spans to %s (dropped: %llu)\n", spans.size(),
              tracePath.c_str(),
              static_cast<unsigned long long>(obs::traceDroppedEvents()));

  // --- Metrics registry ----------------------------------------------
  std::printf("\nselected counters:\n");
  for (obs::Counter c : {obs::Counter::AnalysesCompleted,
                         obs::Counter::StagesExecuted,
                         obs::Counter::BatchItems, obs::Counter::GemmCalls, obs::Counter::SvdCalls,
                         obs::Counter::RankDecisions})
    std::printf("  %-32s %llu\n", obs::counterName(c),
                static_cast<unsigned long long>(obs::counterValue(c)));
  std::printf("\nmetrics (JSON):\n%s\n", obs::metricsJson().c_str());
  std::printf("metrics (Prometheus exposition, first lines):\n");
  const std::string prom = obs::metricsPrometheus();
  std::size_t shown = 0, pos = 0;
  while (shown < 12 && pos < prom.size()) {
    const std::size_t nl = prom.find('\n', pos);
    std::printf("  %s\n", prom.substr(pos, nl - pos).c_str());
    pos = nl == std::string::npos ? prom.size() : nl + 1;
    ++shown;
  }

  // --- Memory high-water marks ---------------------------------------
  std::printf("\nper-stage peak live bytes (largest item, %s):\n",
              reports.back()->id.c_str());
  for (const api::StageTrace& t : reports.back()->stages)
    std::printf("  %-20s %9zu bytes\n", t.name.c_str(), t.peakBytes);
  std::printf("process peak live bytes: %zu\n", obs::memPeakBytes());

  // --- Observation-only contract --------------------------------------
  // A dark analyzer (no telemetry fields set; note telemetry switches
  // only ever turn ON process-wide, so this re-run is only truly dark
  // when the process env didn't force them) must reach identical
  // decisions.
  const api::PassivityAnalyzer darkAnalyzer;
  bool allMatch = true;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    api::Result<api::AnalysisReport> dark = darkAnalyzer.analyze(batch[k]);
    allMatch = allMatch && dark.ok() && dark->decisionEquals(*reports[k]);
  }
  std::printf("\ntelemetry-on decisions == dark decisions: %s\n",
              allMatch ? "YES" : "NO");
  return (allMatch && !spans.empty()) ? 0 : 1;
}
