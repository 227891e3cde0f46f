// perfbench: the repository benchmark, one workload per process.
//
//   perfbench --workload large-order|batch-mixed|sweep-margin --seed N
//             --seconds S --trace 0|1 [--commit ID] [--span-out PATH]
//   perfbench --workload W --seed N --fingerprint
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the
// workload layer by layer and reports the per-layer metrics. The last
// line on stdout is the JSON result. run.py builds this binary and is the
// documented entry point (see README.md).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/shhpass.hpp"
#include "linalg/blas.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = shhpass::api;
namespace circuits = shhpass::circuits;
namespace linalg = shhpass::linalg;

struct Args {
  Workload workload = Workload::LargeOrder;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spanOut;
  bool fingerprintOnly = false;
};

int usage() {
  std::fputs(
      "usage: perfbench --workload large-order|batch-mixed|sweep-margin "
      "--seed N --seconds S --trace 0|1 [--commit ID] [--span-out PATH]\n"
      "       perfbench --workload W --seed N --fingerprint\n",
      stderr);
  return 2;
}

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveWorkload = false, haveSeed = false, haveSeconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fingerprint") {
      a.fingerprintOnly = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!parseWorkload(value, a.workload)) return false;
      haveWorkload = true;
    } else if (flag == "--seed") {
      if (value.empty() || value[0] < '0' || value[0] > '9') return false;
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
      haveSeed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0)
        return false;
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--span-out") {
      a.spanOut = value;
    } else {
      return false;
    }
  }
  return haveWorkload && haveSeed &&
         (a.fingerprintOnly || (haveSeconds && a.trace >= 0));
}

std::size_t cpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// a / b, or 0 when b is 0 (keeps every reported value finite).
double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  std::printf("}}\n");
}

void printEnvironment(const Args& args, const Settings& s) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) < 1) load[0] = -1.0;
  std::printf(
      "env: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %zu, \"gemm_width\": %zu, \"workers\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"loadavg_1m\": %.2f}\n",
      workloadName(args.workload), static_cast<unsigned long long>(args.seed),
      args.trace, s.nproc, s.gemmWidth, s.workers, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, args.commit.c_str(), load[0]);
}

void printFingerprint(const Args& args, const Inputs& in) {
  std::printf("fingerprint: workload=%s seed=%llu hash=%016llx\n",
              workloadName(args.workload),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(in.fingerprint));
}

/// Inputs and analyzer after set-up, with the set-up times.
struct Bench {
  Inputs inputs;
  std::unique_ptr<api::PassivityAnalyzer> analyzer;
  std::vector<double> setupSeconds;
  CheckResult warmCheck;
};

/// Set up `times` times: generate the inputs, render the netlist,
/// construct the analyzer and run the untimed warm-up pass. The last
/// set-up is kept.
Bench setUp(const Args& args, const Settings& s, int times) {
  Bench b;
  for (int k = 0; k < times; ++k) {
    const std::uint64_t t0 = nowNs();
    Inputs inputs = makeInputs(args.workload, args.seed);
    api::AnalyzerOptions options;
    options.threads = s.workers;
    auto analyzer = std::make_unique<api::PassivityAnalyzer>(options);
    const PassOutput warm = runPass(inputs, *analyzer, nullptr);
    b.setupSeconds.push_back(secondsBetween(t0, nowNs()));
    b.warmCheck.add(checkPass(inputs, warm));
    b.inputs = std::move(inputs);
    b.analyzer = std::move(analyzer);
  }
  return b;
}

int runUntraced(const Args& args, const Settings& s) {
  Bench b = setUp(args, s, 3);
  printFingerprint(args, b.inputs);
  std::vector<double> passes;
  CheckResult checks;
  const std::uint64_t start = nowNs();
  while (passes.empty() || secondsBetween(start, nowNs()) < args.seconds) {
    const std::uint64_t t0 = nowNs();
    const PassOutput out = runPass(b.inputs, *b.analyzer, nullptr);
    passes.push_back(secondsBetween(t0, nowNs()));
    checks.add(checkPass(b.inputs, out));
  }
  // Correct items of a median pass: the median keeps one preempted pass
  // on a shared machine from moving the figure.
  const double itemsPerS =
      ratio(static_cast<double>(checks.attempted - checks.failed),
            static_cast<double>(passes.size()) * median(passes));
  std::printf("pass_s: n=%zu p25=%.6f p50=%.6f p75=%.6f\n", passes.size(),
              quantile(passes, 0.25), median(passes), quantile(passes, 0.75));
  std::printf("setup_s: n=%zu p50=%.6f\n", b.setupSeconds.size(),
              median(b.setupSeconds));
  checks.add(b.warmCheck);
  std::printf("failed_frac: %.6g (%zu of %zu items)\n",
              ratio(static_cast<double>(checks.failed),
                    static_cast<double>(checks.attempted)),
              checks.failed, checks.attempted);
  if (!checks.firstProblem.empty())
    std::printf("first problem: %s\n", checks.firstProblem.c_str());
  printResult(checks.failed == 0, checks.attempted, checks.failed,
              {{"items_per_s", itemsPerS, "1/s"},
               {"pass_s.p50", median(passes), "s"},
               {"peak_rss_mb", peakRssMb(), "MB"},
               {"setup_s", median(b.setupSeconds), "s"}});
  return 0;
}

double gemmGflops(std::size_t threads) {
  const std::size_t n = 800;
  linalg::Matrix a(n, n), c(n, n), bm(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<double>((i * 131 + j * 17) % 97) / 97.0 - 0.5;
      bm(i, j) = static_cast<double>((i * 29 + j * 113) % 89) / 89.0 - 0.5;
    }
  linalg::setGemmThreads(threads);
  std::vector<double> t;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t t0 = nowNs();
    linalg::gemm(1.0, a, false, bm, false, 0.0, c);
    t.push_back(secondsBetween(t0, nowNs()));
  }
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  return ratio(flops, median(t)) * 1e-9;
}

int runTraced(const Args& args, const Settings& s) {
  Bench b = setUp(args, s, 1);
  printFingerprint(args, b.inputs);
  const Workload w = args.workload;
  CheckResult checks = b.warmCheck;

  // Untraced and traced passes, alternating; the first untraced pass is
  // the reference the replay is held to.
  SpanLog passLog;
  std::vector<double> plain, traced;
  PassOutput reference;
  const std::uint64_t start = nowNs();
  while (plain.empty() || secondsBetween(start, nowNs()) < args.seconds / 2) {
    std::uint64_t t0 = nowNs();
    PassOutput out = runPass(b.inputs, *b.analyzer, nullptr);
    plain.push_back(secondsBetween(t0, nowNs()));
    checks.add(checkPass(b.inputs, out));
    if (plain.size() == 1) reference = std::move(out);
    t0 = nowNs();
    const PassOutput tracedOut = runPass(b.inputs, *b.analyzer, &passLog);
    traced.push_back(secondsBetween(t0, nowNs()));
    checks.add(checkPass(b.inputs, tracedOut));
  }
  const double tracedPasses = static_cast<double>(traced.size());

  // The items of one pass, each with the analyzer's report.
  std::vector<api::AnalysisRequest> sweepRequests;
  if (w == Workload::SweepMargin && reference.error.empty())
    sweepRequests =
        circuits::buildSweepRequests(reference.netlist, sweepSpec(b.inputs));
  const std::vector<api::AnalysisRequest>& items =
      w == Workload::SweepMargin ? sweepRequests : b.inputs.requests;
  std::vector<const api::AnalysisReport*> refs(items.size(), nullptr);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (w == Workload::SweepMargin) {
      if (i < reference.sweep.points.size() && reference.sweep.points[i].ok)
        refs[i] = &reference.sweep.points[i].report;
    } else if (i < reference.results.size() && reference.results[i].ok()) {
      refs[i] = &reference.results[i].value();
    }
  }

  // Solo analyze() time per item at the workload's gemm width; the
  // large-order pass already is one solo analysis.
  std::vector<double> solo;
  if (w == Workload::LargeOrder) {
    solo.push_back(median(plain));
  } else {
    for (const api::AnalysisRequest& item : items) {
      const std::uint64_t t0 = nowNs();
      (void)b.analyzer->analyze(item);
      solo.push_back(secondsBetween(t0, nowNs()));
    }
  }

  // Stage replay at gemm widths {1, 2, 4} capped at nproc; proper-part's
  // sub-calls are replayed at the workload's own width.
  const shhpass::core::PassivityOptions& defaults =
      b.analyzer->options().passivity;
  auto capped = [&s](std::size_t k) { return std::min(k, s.nproc); };
  std::vector<std::size_t> widths;
  for (std::size_t k : {1, 2, 4})
    if (std::find(widths.begin(), widths.end(), capped(k)) == widths.end())
      widths.push_back(capped(k));
  std::map<std::size_t, SpanLog> replayLogs;
  for (std::size_t width : widths) {
    linalg::setGemmThreads(width);
    SpanLog& log = replayLogs[width];
    for (std::size_t i = 0; i < items.size(); ++i) {
      const ReplayOutcome r = replayAnalysis(
          items[i].system, items[i].options ? *items[i].options : defaults,
          log, static_cast<long>(i), width == s.gemmWidth);
      ++checks.attempted;
      if (refs[i] == nullptr || !sameDecision(r, *refs[i]))
        checks.fail("replay parity: " + items[i].id + " at gemm width " +
                    std::to_string(width) +
                    (r.error.empty() ? "" : ": " + r.error));
    }
  }
  linalg::setGemmThreads(s.gemmWidth);
  const SpanLog& atWidth = replayLogs[s.gemmWidth];

  std::vector<Metric> m;
  double stageSum = 0.0;
  std::printf("stage seconds per pass (gemm width 1 / %zu / %zu):\n",
              capped(2), capped(4));
  for (const char* stage : kStageSpans) {
    const double own = atWidth.totalSeconds(stage);
    const double t1 = replayLogs[capped(1)].totalSeconds(stage);
    const double t2 = replayLogs[capped(2)].totalSeconds(stage);
    const double t4 = replayLogs[capped(4)].totalSeconds(stage);
    stageSum += own;
    std::printf("  %-24s %10.6f %10.6f %10.6f\n", stage, t1, t2, t4);
    m.push_back({std::string(stage) + "_s", own, "s"});
    m.push_back({std::string(stage) + ".speedup_t2", ratio(t1, t2), "x"});
    m.push_back({std::string(stage) + ".speedup_t4", ratio(t1, t4), "x"});
  }
  for (const char* call : kSubcallSpans)
    m.push_back({std::string(call) + "_s", atWidth.totalSeconds(call), "s"});
  const double properPart = atWidth.totalSeconds("core.proper_part");
  const double covered = atWidth.totalSeconds("shh.arnoldi") +
                         atWidth.totalSeconds("linalg.ebar_svd") +
                         atWidth.totalSeconds("shh.decouple");
  m.push_back({"core.proper_part.uncovered_frac",
               properPart > 0.0 ? 1.0 - covered / properPart : 0.0,
               "fraction"});
  m.push_back({"core.stage_coverage", ratio(stageSum, sum(solo)),
               "fraction"});

  std::size_t swaps = 0, rejected = 0, svdFallbacks = 0;
  for (const api::AnalysisReport* r : refs) {
    if (r == nullptr) continue;
    swaps += r->reorder.swaps;
    rejected += r->reorder.rejectedSwaps;
    svdFallbacks += r->staircase.svdFallbacks;
  }
  m.push_back({"linalg.reorder_swaps", static_cast<double>(swaps), "count"});
  m.push_back(
      {"linalg.reorder_rejected", static_cast<double>(rejected), "count"});
  m.push_back({"linalg.staircase_svd_fallbacks",
               static_cast<double>(svdFallbacks), "count"});
  m.push_back({"linalg.gemm_gflops.t1", gemmGflops(1), "GFLOP/s"});
  m.push_back({"linalg.gemm_gflops.t4", gemmGflops(capped(4)), "GFLOP/s"});
  linalg::setGemmThreads(s.gemmWidth);

  // The analyzer call of a pass: analyze(), runBatch(), or the sweep's
  // runBatch phase.
  const char* callSpan = w == Workload::LargeOrder  ? "api.analyze"
                         : w == Workload::BatchMixed ? "api.run_batch"
                                                     : "api.sweep_batch";
  const double batchWall = passLog.totalSeconds(callSpan) / tracedPasses;
  const double soloSum = sum(solo);
  const double longest =
      solo.empty() ? 0.0 : *std::max_element(solo.begin(), solo.end());
  const double workers = static_cast<double>(s.workers);
  m.push_back({"api.batch_efficiency", ratio(soloSum, workers * batchWall),
               "fraction"});
  m.push_back({"api.batch_slack_s",
               batchWall - std::max(longest, soloSum / workers), "s"});
  m.push_back({"api.longest_item_s", longest, "s"});

  const double marginSeconds = passLog.totalSeconds("core.margin") / tracedPasses;
  m.push_back({"core.margin_s", marginSeconds, "s"});
  m.push_back({"core.margin_share", ratio(marginSeconds, median(traced)),
               "fraction"});
  m.push_back({"api.sweep_batch_s",
               passLog.totalSeconds("api.sweep_batch") / tracedPasses, "s"});
  m.push_back({"api.parse_s", passLog.totalSeconds("api.parse") / tracedPasses,
               "s"});
  m.push_back({"circuits.build_requests_s",
               passLog.totalSeconds("circuits.build_requests") / tracedPasses,
               "s"});
  m.push_back(
      {"api.json_s", passLog.totalSeconds("api.json") / tracedPasses, "s"});
  m.push_back({"trace_overhead_frac",
               ratio(median(traced), median(plain)) - 1.0, "fraction"});

  // Telemetry on vs off on the largest item. Telemetry switched on stays
  // on for the process, so this runs last.
  std::size_t target = 0;
  for (std::size_t i = 1; i < items.size(); ++i)
    if (items[i].system.order() > items[target].system.order()) target = i;
  double telemetryOverhead = 0.0;
  if (!items.empty()) {
    // About two seconds per side, at least one analysis.
    const int reps = static_cast<int>(
        std::clamp(std::floor(ratio(2.0, solo[target])), 1.0, 15.0));
    std::vector<double> off, on;
    for (int r = 0; r < reps; ++r) {
      const std::uint64_t t0 = nowNs();
      (void)b.analyzer->analyze(items[target]);
      off.push_back(secondsBetween(t0, nowNs()));
    }
    api::AnalyzerOptions observed = b.analyzer->options();
    observed.telemetry.trace = true;
    observed.telemetry.metrics = true;
    const api::PassivityAnalyzer withTelemetry(observed);
    for (int r = 0; r < reps; ++r) {
      const std::uint64_t t0 = nowNs();
      (void)withTelemetry.analyze(items[target]);
      on.push_back(secondsBetween(t0, nowNs()));
    }
    telemetryOverhead = ratio(median(on), median(off)) - 1.0;
  }
  m.push_back({"obs.telemetry_overhead_frac", telemetryOverhead, "fraction"});

  if (!args.spanOut.empty()) {
    std::FILE* f = std::fopen(args.spanOut.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"workload\": \"%s\", \"logs\": {\"passes\": ",
                   workloadName(w));
      passLog.writeJsonArray(f);
      for (const auto& [width, log] : replayLogs) {
        std::fprintf(f, ", \"replay.w%zu\": ", width);
        log.writeJsonArray(f);
      }
      std::fputs("}}\n", f);
      std::fclose(f);
    }
  }

  std::printf("replay parity: %zu items x %zu widths\n", items.size(),
              widths.size());
  if (!checks.firstProblem.empty())
    std::printf("first problem: %s\n", checks.firstProblem.c_str());
  printResult(checks.failed == 0, checks.attempted, checks.failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parseArgs(argc, argv, args)) return usage();
#ifdef NDEBUG
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    const Settings s = settingsFor(args.workload, cpusAvailable());
    if (args.fingerprintOnly) {
      printFingerprint(args, makeInputs(args.workload, args.seed));
      return 0;
    }
    printEnvironment(args, s);
    shhpass::linalg::setGemmThreads(s.gemmWidth);
    return args.trace == 1 ? runTraced(args, s) : runUntraced(args, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
