// Stage-by-stage replay of one analysis through the public functions
// api::Pipeline calls, with the analyzer's options, each call timed in a
// span of the benchmark's own. The replay must reach the analyzer's
// decision (replay parity), or the per-layer times would describe a
// different program.
#pragma once

#include <cstddef>
#include <string>

#include "api/shhpass.hpp"
#include "spans.hpp"

namespace perfbench {

/// Span names of the replayed Fig.-1 stages, in pipeline order.
inline constexpr const char* kStageSpans[] = {
    "ds.balance",      "ds.screens",             "core.build_phi",
    "core.impulse_deflation", "core.nondynamic", "core.m1",
    "core.proper_part", "control.pr_test"};

/// Span names of the proper-part sub-calls replayed on the stage's own
/// intermediates (the Eq.-21 Arnoldi reduction, the Ebar certificate and
/// the Eq.-22/23 decoupling; then, on its Hamiltonian, the Schur form,
/// the reordering and the Lyapunov solve the decoupling runs inside).
inline constexpr const char* kSubcallSpans[] = {
    "shh.arnoldi",  "linalg.ebar_svd", "shh.decouple",
    "linalg.schur", "linalg.reorder",  "control.lyapunov"};

struct ReplayOutcome {
  bool completed = false;  ///< No operational error on the way.
  shhpass::api::ErrorCode verdict = shhpass::api::ErrorCode::Ok;
  std::string error;       ///< Status text when !completed.
  std::size_t properOrder = 0;
  std::size_t removedImpulsive = 0;
  std::size_t removedNondynamic = 0;
  std::size_t reorderSwaps = 0;  ///< Of the proper-part stage.
  bool subcallsRan = false;
  std::size_t subcallSwaps = 0;  ///< Of the replayed reorderSchur.
};

/// Replay one analysis into `spans` (names as kStageSpans, tagged with
/// `item`). With `subcalls`, proper-part's sub-calls are replayed after
/// the last stage on the same intermediates (names as kSubcallSpans).
ReplayOutcome replayAnalysis(const shhpass::ds::DescriptorSystem& sys,
                             const shhpass::core::PassivityOptions& opts,
                             SpanLog& spans, long item, bool subcalls);

/// Replay parity: same verdict, properOrder, removedImpulsive and
/// removedNondynamic as the analyzer's report, and the replayed
/// reordering took exactly the stage's swaps.
bool sameDecision(const ReplayOutcome& r,
                  const shhpass::api::AnalysisReport& report);

}  // namespace perfbench
