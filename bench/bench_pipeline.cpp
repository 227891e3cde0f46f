// Persisted benchmark trajectory of the full analyzer pipeline.
//
// Runs the public PassivityAnalyzer on the Table-1 benchmark family at a
// fixed ladder of orders, records per-stage wall times from the stage
// pipeline's StageTrace records plus reorder, Schur-eigensolver, and
// staircase deflation-chain health, measures the dense kernels (naive vs
// blocked gemm, unblocked vs blocked Hessenberg, unblocked vs blocked
// SVD, unblocked vs multishift-AED Schur, staircase deflation chain vs
// the SVD-chain oracle, windowed vs bubble Schur reordering, blocked vs
// back-substitution Lyapunov) in GFLOP/s, records per-stage peak live bytes from
// the memory accountant plus the telemetry-on-vs-dark observer-overhead
// row (schema v7), and writes everything as BENCH_pipeline.json.
//
// The JSON schema is documented in docs/BENCHMARKS.md; the committed
// BENCH_pipeline.json at the repository root is one trajectory point per
// PR, so future speedups land as comparable rows, not anecdotes. CI runs
// the --quick variant and validates the emitted file against the schema
// (tools/validate_bench_json.py).
//
// Usage:
//   bench_pipeline [--quick] [--reps N] [--threads N] [--out PATH]
//     --quick      orders {100} (CI smoke); default orders {100,200,400,800}
//     --reps N     timed repetitions per order, best-of (default 3; the
//                  per-stage breakdown comes from the fastest rep)
//     --threads N  enable the gemm thread pool (default 1 = serial; the
//                  committed trajectory is recorded single-threaded so
//                  rows stay comparable across machines)
//     --out PATH   output file (default BENCH_pipeline.json in the cwd)
//
// Determinism contract (bench_support.hpp): every model is a pure
// function of its printed order; wall times are the only nondeterministic
// values in the file.
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/analyzer.hpp"
#include "api/json.hpp"
#include "bench_support.hpp"
#include "circuits/generators.hpp"
#include "circuits/sweep.hpp"
#include "control/lyapunov.hpp"
#include "core/impulse_deflation.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "linalg/blas.hpp"
#include "linalg/hessenberg.hpp"
#include "linalg/schur.hpp"
#include "linalg/schur_reorder.hpp"
#include "linalg/svd.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shh/stable_subspace.hpp"
#include "decoupling_oracle.hpp"
#include "svd_chain_oracle.hpp"

namespace {

using namespace shhpass;

struct KernelRow {
  const char* kernel;
  std::size_t n;
  const char* variant;
  double seconds;
  double gflops;
};

// Best-of-reps kernel timing in GFLOP/s (flops given by the caller).
KernelRow timeKernel(const char* kernel, std::size_t n, const char* variant,
                     double flops, int reps,
                     const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, bench::timeSeconds(fn));
  return {kernel, n, variant, best, flops / best / 1e9};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> orders = {100, 200, 400, 800};
  int reps = 3;
  std::size_t threads = 1;
  bool quick = false;
  std::string outPath = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      orders = {100};
      quick = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  linalg::setGemmThreads(threads);  // 0 = hardware concurrency

  api::json::Writer w;
  w.beginObject();
  w.key("schema").value("shhpass-bench-pipeline");
  w.key("schemaVersion").value(std::size_t{7});
  w.key("timeUnit").value("seconds");
  w.key("gemmThreads").value(linalg::gemmThreads());
  w.key("reps").value(static_cast<std::size_t>(reps));

  // ------------------------------------------------------------- pipeline
  // Memory accounting on for the pipeline rows so every StageTrace
  // carries its high-water peakBytes (schema v7). The accountant is one
  // relaxed atomic per Matrix allocation — its cost is covered by the
  // observerOverhead row below, which times the FULL telemetry stack
  // (trace + metrics + memory) against a fully-dark run.
  obs::setMemoryEnabled(true);
  const api::PassivityAnalyzer analyzer;
  // Warmup: one full analysis at the smallest order primes allocators and
  // the CPU frequency governor before anything is timed.
  (void)analyzer.analyze(circuits::makeBenchmarkModel(orders.front(), true));

  std::printf("# shhpass bench_pipeline (reps=%d, gemmThreads=%zu)\n", reps,
              linalg::gemmThreads());
  std::printf("%-8s %-10s %-14s %-8s %-5s %-10s\n", "order", "total",
              "bottleneck", "swaps", "rej", "maxresid");

  w.key("pipeline").beginArray();
  for (std::size_t order : orders) {
    const ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, true);
    std::optional<api::AnalysisReport> best;
    for (int r0 = 0; r0 < reps; ++r0) {
      api::Result<api::AnalysisReport> r = analyzer.analyze(g);
      if (!r.ok()) {
        std::fprintf(stderr, "analysis failed at order %zu: %s\n", order,
                     r.status().toString().c_str());
        return 1;
      }
      if (!best || r->totalSeconds < best->totalSeconds)
        best = std::move(r.value());
    }
    const api::AnalysisReport& rep = *best;

    const api::StageTrace* slowest = nullptr;
    for (const api::StageTrace& t : rep.stages)
      if (!slowest || t.seconds > slowest->seconds) slowest = &t;
    std::printf("%-8zu %-10.4f %-14s %-8zu %-5zu %-10.2e\n", order,
                rep.totalSeconds, slowest ? slowest->name.c_str() : "-",
                rep.reorder.swaps, rep.reorder.rejectedSwaps,
                rep.reorder.maxResidual);
    std::fflush(stdout);

    w.beginObject();
    w.key("order").value(order);
    w.key("ports").value(rep.ports);
    w.key("passive").value(rep.passive);
    w.key("properOrder").value(rep.properOrder);
    w.key("totalSeconds").value(rep.totalSeconds);
    w.key("stages").beginArray();
    for (const api::StageTrace& t : rep.stages) {
      w.beginObject();
      w.key("name").value(t.name);
      w.key("seconds").value(t.seconds);
      w.key("peakBytes").value(t.peakBytes);
      w.endObject();
    }
    w.endArray();
    w.key("reorder").beginObject();
    w.key("swaps").value(rep.reorder.swaps);
    w.key("rejectedSwaps").value(rep.reorder.rejectedSwaps);
    w.key("maxResidual").value(rep.reorder.maxResidual);
    w.key("eigenvalueDrift").value(rep.reorder.eigenvalueDrift);
    w.endObject();
    w.key("schur").beginObject();
    w.key("multishift").value(rep.schur.multishift);
    w.key("sweeps").value(rep.schur.sweeps);
    w.key("aedWindows").value(rep.schur.aedWindows);
    w.key("aedDeflations").value(rep.schur.aedDeflations);
    w.key("shiftsApplied").value(rep.schur.shiftsApplied);
    w.key("iterations").value(rep.schur.iterations);
    w.endObject();
    w.key("staircase").beginObject();
    w.key("compressions").value(rep.staircase.compressions);
    w.key("svdFallbacks").value(rep.staircase.svdFallbacks);
    w.key("diagonalFastPaths").value(rep.staircase.diagonalFastPaths);
    w.key("qrCompressions").value(rep.staircase.qrCompressions);
    w.key("skewTridiagonalizations")
        .value(rep.staircase.skewTridiagonalizations);
    w.key("reusedCompressions").value(rep.staircase.reusedCompressions);
    w.key("chainLength").value(rep.staircase.chainLength);
    w.key("truncatedSteps").value(rep.staircase.truncatedSteps);
    w.endObject();
    w.endObject();
  }
  w.endArray();

  // -------------------------------------------------------------- kernels
  // Single-matrix sizes chosen so the largest matches the top pipeline
  // order and the acceptance gates (blocked gemm >= 3x naive, blocked
  // SVD >= 2x unblocked, both at n = 800 single-threaded).
  std::vector<std::size_t> kernelSizes = orders.size() == 1
                                             ? std::vector<std::size_t>{256}
                                             : std::vector<std::size_t>{
                                                   256, 400, 800};
  std::vector<KernelRow> rows;
  std::printf("\n%-10s %-6s %-10s %-10s %-10s\n", "kernel", "n", "variant",
              "seconds", "GFLOP/s");
  for (std::size_t n : kernelSizes) {
    const linalg::Matrix a = bench::seededMatrix(n, n, 2 * n + 1);
    const linalg::Matrix b = bench::seededMatrix(n, n, 3 * n + 7);
    linalg::Matrix c(n, n);
    const double gemmFlops = 2.0 * static_cast<double>(n) * n * n;
    rows.push_back(timeKernel("gemm", n, "reference", gemmFlops, reps, [&] {
      linalg::gemmReference(1.0, a, false, b, false, 0.0, c);
    }));
    rows.push_back(timeKernel("gemm", n, "blocked", gemmFlops, reps, [&] {
      linalg::gemmBlocked(1.0, a, false, b, false, 0.0, c);
    }));
    // 10/3 n^3 for the reduction + 4/3 n^3 for the Q accumulation.
    const double hessFlops = 14.0 / 3.0 * static_cast<double>(n) * n * n;
    rows.push_back(
        timeKernel("hessenberg", n, "unblocked", hessFlops, reps,
                   [&] { linalg::hessenbergUnblocked(a); }));
    rows.push_back(timeKernel("hessenberg", n, "blocked", hessFlops, reps,
                              [&] { linalg::hessenberg(a); }));
    const double svdFlops = bench::svdNominalFlops(n);
    rows.push_back(timeKernel("svd", n, "unblocked", svdFlops, reps,
                              [&] { linalg::svdUnblocked(a); }));
    rows.push_back(timeKernel("svd", n, "blocked", svdFlops, reps,
                              [&] { linalg::svdBlocked(a); }));
    const double schurFlops = bench::schurNominalFlops(n);
    rows.push_back(timeKernel("schur", n, "unblocked", schurFlops, reps,
                              [&] { linalg::schurUnblocked(a); }));
    rows.push_back(timeKernel("schur", n, "multishift", schurFlops, reps,
                              [&] { linalg::realSchur(a); }));
    if (n == 256) {
      // Deflation chain (impulse deflation + nondynamic removal) on the
      // Phi pencil of the order-256 benchmark model: the staircase chain
      // vs the SVD-chain oracle (tests/svd_chain_oracle.hpp). The >= 1.5x
      // speedup floor (validate_bench_json.py) rides on these two rows.
      // Flops are nominal (the SVD chain's SVD count) so the gflops column
      // stays a consistent inverse-seconds scale for both variants.
      const ds::DescriptorSystem gChain =
          circuits::makeBenchmarkModel(n, true);
      const shh::ShhRealization phi = core::buildPhi(gChain);
      const double chainFlops = 2.0 * bench::svdNominalFlops(phi.order());
      rows.push_back(timeKernel(
          "deflation-chain", n, "staircase", chainFlops, reps, [&phi] {
            core::ImpulseDeflationResult s1 = core::deflateImpulseModes(phi);
            (void)core::removeNondynamicModes(s1.reduced);
          }));
      rows.push_back(timeKernel(
          "deflation-chain", n, "svd-chain", chainFlops, reps, [&phi] {
            oracle::ImpulseDeflation s1 = oracle::deflateImpulseModes(phi);
            (void)oracle::removeNondynamicModes(s1.reduced);
          }));

      // Eq.-22/23 decoupling kernels vs their oracles
      // (tests/decoupling_oracle.hpp). `reorder`: the stable/antistable
      // reordering of the real Schur form of a seeded order-n
      // Hamiltonian, windowed vs the one-block-at-a-time bubble.
      // `lyapunov`: Lambda Y + Y Lambda^T + Q = 0 with Lambda the order-n
      // stable block of a seeded order-2n Hamiltonian, the blocked
      // quasi-triangular kernel vs the block back-substitution. Flops are
      // nominal (n^3 and 2n^3, the same for both variants of a row).
      const auto stableSelect = [](std::complex<double> l) {
        return l.real() < 0.0;
      };
      const linalg::RealSchurResult hs =
          linalg::realSchur(bench::seededHamiltonian(n / 2, 11 * n + 5));
      const double reorderFlops = static_cast<double>(n) * n * n;
      rows.push_back(
          timeKernel("reorder", n, "windowed", reorderFlops, reps, [&] {
            linalg::Matrix t = hs.t, q = hs.q;
            (void)linalg::reorderSchur(t, q, stableSelect);
          }));
      rows.push_back(
          timeKernel("reorder", n, "oracle", reorderFlops, reps, [&] {
            linalg::Matrix t = hs.t, q = hs.q;
            (void)oracle::reorderSchurBubble(t, q, stableSelect);
          }));
      const shh::HamiltonianDecoupling dec =
          shh::decoupleHamiltonian(bench::seededHamiltonian(n, 13 * n + 3));
      linalg::Matrix lyapQ = bench::seededMatrix(n, n, 17 * n + 1);
      linalg::symmetrize(lyapQ);
      const double lyapFlops = 2.0 * static_cast<double>(n) * n * n;
      rows.push_back(timeKernel("lyapunov", n, "blocked", lyapFlops, reps, [&] {
        (void)control::solveLyapunov(dec.lambda, lyapQ);
      }));
      rows.push_back(timeKernel("lyapunov", n, "oracle", lyapFlops, reps, [&] {
        (void)oracle::solveLyapunovBackSubstitution(dec.lambda, lyapQ);
      }));
    }
  }
  w.key("kernels").beginArray();
  for (const KernelRow& r : rows) {
    std::printf("%-10s %-6zu %-10s %-10.4f %-10.2f\n", r.kernel, r.n,
                r.variant, r.seconds, r.gflops);
    w.beginObject();
    w.key("kernel").value(r.kernel);
    w.key("n").value(r.n);
    w.key("variant").value(r.variant);
    w.key("seconds").value(r.seconds);
    w.key("gflops").value(r.gflops);
    w.endObject();
  }
  w.endArray();

  // ------------------------------------------------ batch throughput (v5)
  // Mixed-order batch through runBatch on every hardware thread: items
  // start largest order first, at the --threads gemm width.
  // The baseline is the same batch through runBatch with one worker. Both
  // runs are best-of-reps; the
  // scheduled results must decisionEquals the sequential ones item by
  // item (decisionMismatches is committed and must be 0 — the
  // determinism contract measured, not assumed). validate_bench_json.py
  // enforces speedup >= 2.0 only when the recorded hardwareThreads >= 8,
  // so rows from small machines stay honest without failing the gate.
  {
    const std::vector<std::size_t> batchOrders =
        quick ? std::vector<std::size_t>{40, 40, 56, 56, 96, 120}
              : std::vector<std::size_t>{40,  40,  40,  40,  56,  56,
                                         56,  96,  96,  96,  120, 120,
                                         120, 224, 224, 300};
    std::vector<api::AnalysisRequest> requests;
    requests.reserve(batchOrders.size());
    for (std::size_t i = 0; i < batchOrders.size(); ++i) {
      api::AnalysisRequest rq;
      rq.id = "mix-" + std::to_string(i);
      rq.system = circuits::makeBenchmarkModel(batchOrders[i], i % 2 == 0);
      requests.push_back(std::move(rq));
    }

    api::AnalyzerOptions seqOpts;
    seqOpts.threads = 1;
    const api::PassivityAnalyzer seqAnalyzer(seqOpts);
    std::vector<api::Result<api::AnalysisReport>> seqResults;
    double seqBest = 1e300;
    for (int r0 = 0; r0 < reps; ++r0)
      seqBest = std::min(seqBest, bench::timeSeconds([&] {
                           seqResults = seqAnalyzer.runBatch(requests);
                         }));

    api::AnalyzerOptions schedOpts;
    schedOpts.threads = 0;  // hardware concurrency
    const api::PassivityAnalyzer schedAnalyzer(schedOpts);
    std::vector<api::Result<api::AnalysisReport>> schedResults;
    double schedBest = 1e300;
    for (int r0 = 0; r0 < reps; ++r0)
      schedBest = std::min(schedBest, bench::timeSeconds([&] {
                             schedResults = schedAnalyzer.runBatch(requests);
                           }));

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!seqResults[i].ok() || !schedResults[i].ok() ||
          !seqResults[i]->decisionEquals(*schedResults[i]))
        ++mismatches;
    }
    const std::size_t items = requests.size();
    const double seqRate = static_cast<double>(items) / seqBest;
    const double schedRate = static_cast<double>(items) / schedBest;
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t batchWorkers = std::min(hw, items);

    std::printf(
        "\nbatch-throughput: %zu analyses, %zu workers (hw=%zu): "
        "%.2f/s sequential -> %.2f/s scheduled (%.2fx), %zu mismatches\n",
        items, batchWorkers, hw, seqRate, schedRate, seqBest / schedBest,
        mismatches);

    w.key("batchThroughput").beginObject();
    w.key("items").value(items);
    w.key("orders").beginArray();
    for (std::size_t o : batchOrders) w.value(o);
    w.endArray();
    w.key("hardwareThreads").value(hw);
    w.key("sequential").beginObject();
    w.key("workers").value(std::size_t{1});
    w.key("seconds").value(seqBest);
    w.key("analysesPerSecond").value(seqRate);
    w.endObject();
    w.key("scheduled").beginObject();
    w.key("workers").value(batchWorkers);
    w.key("seconds").value(schedBest);
    w.key("analysesPerSecond").value(schedRate);
    w.endObject();
    w.key("speedup").value(seqBest / schedBest);
    w.key("decisionMismatches").value(mismatches);
    w.endObject();
  }

  // ------------------------------------------------ sweep throughput (v6)
  // Parametric-sweep workload (circuits/sweep.hpp): one RLC ladder
  // netlist, its first R/L/C varied a decade in each direction, MNA
  // re-stamped per point, and the whole point batch run through runBatch
  // on every hardware thread. The baseline is the identical sweep on a
  // one-worker analyzer. decisionMismatches
  // compares the two runs slot by slot and is committed (must be 0).
  {
    circuits::LadderOptions ladder;
    ladder.sections = 12;
    ladder.capAtPort = true;
    const circuits::Netlist net = circuits::makeRlcLadderNetlist(ladder);

    circuits::SweepSpec spec;
    spec.computeMargin = false;  // throughput of the decision path itself
    const std::size_t pointsPerAxis = quick ? 4 : 6;
    bool haveKind[3] = {false, false, false};
    for (std::size_t k = 0; k < net.components().size(); ++k) {
      const auto kind = static_cast<std::size_t>(net.components()[k].kind);
      if (haveKind[kind]) continue;
      haveKind[kind] = true;
      spec.parameters.push_back({k, 1.0, 1.0, pointsPerAxis});
    }

    api::AnalyzerOptions seqOpts;
    seqOpts.threads = 1;
    const api::PassivityAnalyzer seqAnalyzer(seqOpts);
    circuits::SweepResult seqSweep;
    double seqBest = 1e300;
    for (int r0 = 0; r0 < reps; ++r0)
      seqBest = std::min(seqBest, bench::timeSeconds([&] {
                           seqSweep =
                               circuits::runSweep(net, spec, seqAnalyzer);
                         }));

    api::AnalyzerOptions schedOpts;
    schedOpts.threads = 0;  // hardware concurrency
    const api::PassivityAnalyzer schedAnalyzer(schedOpts);
    circuits::SweepResult schedSweep;
    double schedBest = 1e300;
    for (int r0 = 0; r0 < reps; ++r0)
      schedBest = std::min(schedBest, bench::timeSeconds([&] {
                             schedSweep =
                                 circuits::runSweep(net, spec, schedAnalyzer);
                           }));

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < seqSweep.points.size(); ++i) {
      const circuits::SweepPointResult& a = seqSweep.points[i];
      const circuits::SweepPointResult& b = schedSweep.points[i];
      if (a.ok != b.ok || (a.ok && !a.report.decisionEquals(b.report)))
        ++mismatches;
    }
    const std::size_t points = seqSweep.points.size();
    const double seqRate = static_cast<double>(points) / seqBest;
    const double schedRate = static_cast<double>(points) / schedBest;
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t order =
        points > 0 && seqSweep.points[0].ok ? seqSweep.points[0].report.order
                                            : 0;

    std::printf(
        "sweep-throughput: %zu points (order %zu, %zu axes): "
        "%.2f/s sequential -> %.2f/s scheduled (%.2fx), %zu mismatches\n",
        points, order, spec.parameters.size(), seqRate, schedRate,
        seqBest / schedBest, mismatches);

    w.key("sweepThroughput").beginObject();
    w.key("points").value(points);
    w.key("axes").value(spec.parameters.size());
    w.key("pointsPerAxis").value(pointsPerAxis);
    w.key("order").value(order);
    w.key("passiveCount").value(seqSweep.passiveCount);
    w.key("hardwareThreads").value(hw);
    w.key("sequential").beginObject();
    w.key("workers").value(std::size_t{1});
    w.key("seconds").value(seqBest);
    w.key("pointsPerSecond").value(seqRate);
    w.endObject();
    w.key("scheduled").beginObject();
    w.key("seconds").value(schedBest);
    w.key("pointsPerSecond").value(schedRate);
    w.endObject();
    w.key("speedup").value(seqBest / schedBest);
    w.key("decisionMismatches").value(mismatches);
    w.endObject();
  }

  // ----------------------------------------------- observer overhead (v7)
  // The telemetry contract (src/obs/, docs/ARCHITECTURE.md) is "near-zero
  // when off, bounded when on": this row MEASURES the bound. One analysis
  // at the top ladder order, best-of-reps, first with every telemetry
  // surface dark (trace + metrics + memory accounting all off), then with
  // all of them forced on; validate_bench_json.py enforces
  // overheadPct < 3 at order >= 400 (looser sanity ceiling on the quick
  // smoke ladder, where the run is too short to time a 3% delta).
  {
    const std::size_t order = orders.back();
    const ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, true);
    obs::setTraceEnabled(false);
    obs::setMetricsEnabled(false);
    obs::setMemoryEnabled(false);
    double offBest = 1e300;
    for (int r0 = 0; r0 < reps; ++r0)
      offBest = std::min(offBest,
                         bench::timeSeconds([&] { (void)analyzer.analyze(g); }));
    obs::setTraceEnabled(true);
    obs::setMetricsEnabled(true);
    obs::setMemoryEnabled(true);
    double onBest = 1e300;
    for (int r0 = 0; r0 < reps; ++r0) {
      // Fresh span buffers each rep: the overhead being measured is the
      // record path, not an artifact of earlier reps filling the
      // fixed-capacity per-thread buffers and flipping spans into drops.
      obs::clearTrace();
      onBest = std::min(onBest,
                        bench::timeSeconds([&] { (void)analyzer.analyze(g); }));
    }
    obs::setTraceEnabled(false);
    obs::setMetricsEnabled(false);
    const double overheadPct = (onBest - offBest) / offBest * 100.0;

    std::printf(
        "observer-overhead: order %zu: %.4fs dark -> %.4fs telemetry-on "
        "(%.2f%%)\n",
        order, offBest, onBest, overheadPct);

    w.key("observerOverhead").beginObject();
    w.key("order").value(order);
    w.key("darkSeconds").value(offBest);
    w.key("telemetrySeconds").value(onBest);
    w.key("overheadPct").value(overheadPct);
    w.endObject();
  }
  w.endObject();

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", outPath.c_str());
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", outPath.c_str());
  return 0;
}
