// Telemetry walkthrough: run a mixed batch through the PassivityAnalyzer
// with both observability surfaces enabled (span tracing and memory
// accounting — src/obs/), then
//
//   * write the span timeline as Chrome trace-event JSON (load it at
//     chrome://tracing or https://ui.perfetto.dev, or validate it with
//     tools/validate_trace_json.py),
//   * print batch totals summed from the reports, and the gemm flops
//     charged to each stage through the span nesting (a gemm span nests
//     under its stage's span on the same thread, so the attribution holds
//     with batch workers running concurrently), and
//   * print the per-stage memory high-water marks the accountant
//     recorded into each report's StageTraces.
//
//   $ ./trace_analysis [trace.json]
//
// Telemetry is observation only: the dark re-run at the bottom checks
// decisionEquals against every telemetry-on report. The same switches
// can be forced process-wide with SHHPASS_TRACE=path SHHPASS_METRICS=1
// on ANY binary linked against the library — no code changes needed.
#include <cstdint>
#include <cstdio>
#include <map>
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
  // One Table-1 model large enough for its gemms to emit spans.
  api::AnalysisRequest large;
  large.id = "table1-160";
  large.system = circuits::makeBenchmarkModel(160, true);
  batch.push_back(std::move(large));

  api::AnalyzerOptions options;
  options.telemetry.trace = true;       // span tracer on
  options.telemetry.metrics = true;     // memory accounting on
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

  // --- Totals from the reports -------------------------------------
  std::size_t stages = 0, rankDecisions = 0, compressions = 0;
  for (const auto& r : reports) {
    stages += r->stages.size();
    rankDecisions += r->rankPolicy.decisions;
    compressions += r->staircase.compressions;
  }
  std::printf("\nbatch totals (from the reports):\n");
  std::printf("  %-24s %zu\n", "analyses", reports.size());
  std::printf("  %-24s %zu\n", "stages", stages);
  std::printf("  %-24s %zu\n", "rank decisions", rankDecisions);
  std::printf("  %-24s %zu\n", "staircase compressions", compressions);

  // --- Gemm flops per stage, from the span nesting --------------------
  // Only products large enough to thread emit a gemm span.
  std::map<std::string, std::int64_t> gemmFlops;
  for (const obs::TraceEvent& g : spans) {
    if (std::string(g.name) != "gemm") continue;
    for (const obs::TraceEvent& s : spans)
      if (std::string(s.cat) == "stage" && s.tid == g.tid &&
          s.startNs <= g.startNs &&
          g.startNs + g.durNs <= s.startNs + s.durNs) {
        gemmFlops[s.name] += g.argValue;
        break;
      }
  }
  std::printf("\nsampled gemm flops by stage (from the spans):\n");
  for (const auto& [stage, flops] : gemmFlops)
    std::printf("  %-24s %12lld\n", stage.c_str(),
                static_cast<long long>(flops));

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
