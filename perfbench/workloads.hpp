// The benchmark's workloads: seeded input generation, the pass a user
// waits for, and the checks of every pass output against the verdict its
// generator fixes. Everything goes through the library's public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/shhpass.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { LargeOrder, BatchMixed, SweepMargin };

bool parseWorkload(const std::string& name, Workload& out);
const char* workloadName(Workload w);

/// The only knobs the benchmark sets, as a user would: batch workers and
/// gemm width, each at most min(4, nproc). Everything else is a library
/// default.
struct Settings {
  std::size_t nproc = 1;
  std::size_t workers = 1;    ///< AnalyzerOptions::threads.
  std::size_t gemmWidth = 1;  ///< linalg::setGemmThreads.
};
Settings settingsFor(Workload w, std::size_t nproc);

/// Generated inputs: a pure function of (workload, seed).
struct Inputs {
  Workload workload = Workload::LargeOrder;
  /// large-order and batch-mixed: the analyses of one pass.
  std::vector<shhpass::api::AnalysisRequest> requests;
  /// Verdict each request's generator fixes (Ok = passive).
  std::vector<shhpass::api::ErrorCode> expected;
  /// sweep-margin: the rendered SPICE netlist and the swept axes.
  std::string netlistText;
  std::vector<shhpass::circuits::SweepParameter> axes;
  /// FNV-1a over the netlist text and the E/A/B/C/D bits of every request.
  std::uint64_t fingerprint = 0;
};
Inputs makeInputs(Workload w, std::uint64_t seed);

shhpass::circuits::SweepSpec sweepSpec(const Inputs& in);

/// What one pass produced.
struct PassOutput {
  /// large-order and batch-mixed: one result per request.
  std::vector<shhpass::api::Result<shhpass::api::AnalysisReport>> results;
  /// sweep-margin: the parsed netlist and the sweep.
  shhpass::circuits::Netlist netlist{0};
  shhpass::circuits::SweepResult sweep;
  /// Report JSON per analysis, or the one margin map of a sweep.
  std::vector<std::string> json;
  std::string error;  ///< Non-empty when the pass itself failed.
};

/// One pass: one analysis (large-order), one batch (batch-mixed) or one
/// margin map (sweep-margin). With `spans`, the sweep runs as the phases
/// circuits::runSweep composes, each in its own span.
PassOutput runPass(const Inputs& in,
                   const shhpass::api::PassivityAnalyzer& analyzer,
                   SpanLog* spans);

struct CheckResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string firstProblem;

  /// Count `items` failed items; the first problem is kept for the log.
  void fail(std::string problem, std::size_t items = 1);
  void add(const CheckResult& other);
};

/// Check a pass output: every item must reach its expected verdict, the
/// large-order report must show properOrder 480 and no rejected swaps,
/// and the margin map must parse back with every point passive and its
/// margin defined.
CheckResult checkPass(const Inputs& in, const PassOutput& out);

}  // namespace perfbench
