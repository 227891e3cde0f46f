// Ablation A1 (Sec. 4 remarks): per-stage timing of the proposed pipeline.
// The paper states the bottleneck is the identification of the stable
// invariant subspace in Eq. (22); this bench verifies where the time goes.
//
// Everything here rides the telemetry surface (src/obs/) instead of
// hand-rolled timing: the per-stage numbers come from the stage
// pipeline's StageTrace records, the two sub-probes that break the
// proper-part stage down further (the Eq.-22 Hamiltonian eigenstructure
// and the Lyapunov-based split, re-run on the intermediate A4) are ObsSpan
// scopes read back from the span tracer, kernel effort per order is the
// report's rank-decision and staircase-compression counts plus the flops
// of the gemm spans the run emitted, and the peak column is the per-order
// memory high-water mark from the accountant.
//
//   bench_ablation_stages [--quick] [--trace PATH]
//     --trace PATH  additionally dump the full span timeline (stages,
//                   kernels, sub-probes) as Chrome trace-event JSON.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "api/pipeline.hpp"
#include "control/hamiltonian.hpp"
#include "obs/clock.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "shh/stable_subspace.hpp"

namespace {

// Duration of the most recent published span with this name (seconds).
double spanSeconds(const char* name) {
  const std::vector<shhpass::obs::TraceEvent> spans =
      shhpass::obs::snapshotTrace();
  for (auto it = spans.rbegin(); it != spans.rend(); ++it)
    if (std::string(it->name) == name)
      return static_cast<double>(it->durNs) * 1e-9;
  return 0.0;
}

// Flops of the gemm spans that started in [t0, t1] (gemm spans are
// sampled: only products large enough to thread emit one).
std::int64_t gemmSpanFlops(std::uint64_t t0, std::uint64_t t1) {
  std::int64_t flops = 0;
  for (const shhpass::obs::TraceEvent& e : shhpass::obs::snapshotTrace())
    if (std::string(e.name) == "gemm" && e.startNs >= t0 && e.startNs <= t1)
      flops += e.argValue;
  return flops;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shhpass;
  bool quick = false;
  std::string tracePath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--trace" && i + 1 < argc) tracePath = argv[++i];
  }
  std::vector<std::size_t> orders = {50, 100, 200, 400};
  if (quick) orders = {50, 100};

  obs::setTraceEnabled(true);
  obs::setMemoryEnabled(true);

  std::printf(
      "# Ablation: per-stage wall time (sec) of the proposed SHH test\n"
      "# (StageTrace records), reorder health of the Eq.-(22) split\n"
      "# (swap count, rejected swaps, max accepted-swap residual), kernel\n"
      "# effort per order (GFLOP of the sampled gemm spans, the report's\n"
      "# rank decisions and staircase compressions), and peak live Matrix\n"
      "# bytes (memory accountant).\n");
  std::printf(
      "%-8s %-10s %-10s %-10s %-10s %-12s %-10s %-7s %-5s %-10s %-8s "
      "%-6s %-6s %-8s\n",
      "order", "deflate", "nondyn", "proper", "eig22", "split", "pr-test",
      "swaps", "rej", "maxresid", "gemmGF", "rank", "stair", "peakMB");
  for (std::size_t n : orders) {
    ds::DescriptorSystem g = circuits::makeBenchmarkModel(n, true);

    api::PipelineState state;
    state.input = &g;
    const std::uint64_t t0 = obs::monotonicNowNs();
    const api::Status status = api::runPipeline(state);
    const double gemmGflop =
        static_cast<double>(gemmSpanFlops(t0, obs::monotonicNowNs())) * 1e-9;
    if (!status.ok()) {
      std::fprintf(stderr, "unexpected verdict/error at n=%zu: %s\n", n,
                   status.toString().c_str());
      continue;
    }
    std::map<std::string, double> t;
    std::size_t peakBytes = 0;
    for (const api::StageTrace& tr : state.report.stages) {
      t[tr.name] = tr.seconds;
      peakBytes = std::max(peakBytes, tr.peakBytes);
    }

    // Sub-probes inside the proper-part stage: (a) the Hamiltonian
    // eigenstructure of Eq. (22) — the claimed bottleneck — and (b) the
    // stable/antistable Lyapunov split, both re-run on the intermediate
    // A4 as ObsSpan scopes and read back from the tracer, so they land
    // on the same timeline as the stage and kernel spans they contain.
    const linalg::Matrix& a4 = state.properPart.a4;
    {
      obs::ObsSpan span("eig22", "ablation");
      control::stableInvariantSubspace(a4);
    }
    {
      obs::ObsSpan span("lyapunov-split", "ablation");
      shh::decoupleHamiltonian(a4);
    }
    const double tEig22 = spanSeconds("eig22");
    const double tSplit = spanSeconds("lyapunov-split");

    const linalg::ReorderReport& rr = state.report.reorder;
    std::printf(
        "%-8zu %-10.4f %-10.4f %-10.4f %-10.4f %-12.4f %-10.4f %-7zu "
        "%-5zu %-10.2e %-8.3f %-6zu %-6zu %-8.2f\n",
        n, t["impulse-deflation"], t["nondynamic-removal"], t["proper-part"],
        tEig22, tSplit, t["pr-test"], rr.swaps, rr.rejectedSwaps,
        rr.maxResidual, gemmGflop, state.report.rankPolicy.decisions,
        state.report.staircase.compressions,
        static_cast<double>(peakBytes) / (1024.0 * 1024.0));
    std::fflush(stdout);
  }
  if (!tracePath.empty()) {
    if (!obs::writeTraceJson(tracePath)) {
      std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
      return 1;
    }
    std::printf("# wrote span timeline to %s\n", tracePath.c_str());
  }
  return 0;
}
