// Stage-pipeline engine for the Fig.-1 passivity test. Each box of the
// paper's flowchart is one stage function
//     Status stage(PipelineState&)
// in a fixed table; runPipeline runs them in order with per-stage
// wall-clock timing and records the outcome, stage traces included, in
// the one result type, AnalysisReport.
//
// Status semantics inside the pipeline:
//   * ok            -> continue to the next stage;
//   * verdict code  -> the Fig.-1 flow reached a NOT-PASSIVE exit: the run
//                      stops, the analysis itself SUCCEEDED;
//   * error code    -> the analysis failed (bad input / numerical
//                      breakdown); the run stops and the error propagates.
//
// runPipeline executes the stages strictly in order on the calling
// thread. The Fig.-1 chain is sequential (every stage reads what the
// previous one built), so there is one execution mode; parallelism lives
// one level up, across analyses (PassivityAnalyzer::runBatch), and one
// level down, inside the gemm kernel (linalg/blas.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "api/status.hpp"
#include "core/impulse_deflation.hpp"
#include "core/margin.hpp"
#include "core/nondynamic.hpp"
#include "core/passivity_test.hpp"
#include "core/proper_part.hpp"
#include "ds/balance.hpp"
#include "ds/impulse_tests.hpp"
#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "shh/shh_pencil.hpp"

namespace shhpass::api {

/// Per-stage execution record: what ran, how long, and with what outcome.
struct StageTrace {
  std::string name;
  Status status;
  double seconds = 0.0;
  /// Peak live tracked bytes while the stage ran (obs/memory.hpp); 0
  /// unless the memory accountant is enabled. Execution record only —
  /// never part of decisionEquals.
  std::size_t peakBytes = 0;
};

/// Full decision-path record of one analysis.
struct AnalysisReport {
  std::string id;               ///< AnalysisRequest::id (empty for ad hoc).
  bool passive = false;
  ErrorCode verdict = ErrorCode::Ok;  ///< Ok when passive, else the Fig.-1
                                      ///< stage verdict code.
  std::string verdictMessage;   ///< Human-readable verdict.
  core::FailureStage failure = core::FailureStage::None;

  // Input shape.
  std::size_t order = 0;        ///< State count of the input system.
  std::size_t ports = 0;        ///< Input (= output) count.

  // Stage diagnostics.
  std::size_t removedImpulsive = 0;   ///< Deflated directions (stage 2).
  std::size_t removedNondynamic = 0;  ///< Eliminated states (stage 3).
  std::size_t impulsiveChains = 0;    ///< Grade-2 chain count of G.
  linalg::Matrix m1;            ///< First Markov parameter (residue at inf).
  std::size_t properOrder = 0;  ///< Order of the extracted proper part.

  /// Health of the Schur reordering behind the Eq.-(22) stable/antistable
  /// split (zeroed when the run never reached the proper-part stage). A
  /// nonzero rejectedSwaps means some exchanges were numerically
  /// ill-posed and the ordering is incomplete — a LosslessAxisModes
  /// verdict is then conservative rather than certain.
  linalg::ReorderReport reorder;
  /// Health of the real Schur eigensolver behind that split: which
  /// kernel path ran (multishift vs unblocked oracle), sweep / AED /
  /// shift / iteration counters (linalg/schur_multishift.hpp; zeroed
  /// when the run never reached the proper-part stage). Serialized
  /// under diagnostics.schur.
  linalg::SchurReport schur;
  /// Health of the shared-policy SVD rank decisions behind the
  /// impulsive-structure record, the regularity screen, every deflation
  /// step and the proper-part normalizer (decision count + worst
  /// kept/dropped margins, linalg/svd.hpp; empty when the run stopped
  /// before prerequisites compressed E). Each stage passes this record
  /// down and every decision writes into it. Serialized under
  /// diagnostics.rankPolicy.
  linalg::RankReport rankPolicy;
  /// Health of the one-pass staircase chain (kernel mix, compression
  /// reuse, chain truncation — linalg/staircase.hpp), written by the
  /// prerequisites (E's compression, the record and the regularity
  /// screen), impulse-deflation and nondynamic-removal stages. Serialized
  /// under diagnostics.staircase.
  linalg::StaircaseReport staircase;
  /// Non-fatal diagnostic flags (e.g. Warning::ReorderSwapRejected).
  std::vector<Warning> warnings;
  /// Passivity margin (core::marginOfRun), present only when the request
  /// set marginTol. Defined for passive and PROPER_PART_NOT_PR verdicts;
  /// undefined with structuralDefect = failure for every other verdict.
  /// Serialized under diagnostics.margin.
  std::optional<core::PassivityMargin> margin;

  // Execution record.
  /// One trace per executed stage, in Fig.-1 order, followed by a
  /// "margin" trace when the request set marginTol and the margin was
  /// computed.
  std::vector<StageTrace> stages;
  double totalSeconds = 0.0;  ///< Sum of the stage seconds.

  /// Decision-path equality: every field that reflects WHAT was decided
  /// (verdict, diagnostics, M1, margin, per-stage statuses) — everything
  /// except wall-clock timings and memory peaks. Batch results must
  /// decisionEquals their sequential single-shot counterparts, for every
  /// worker count.
  bool decisionEquals(const AnalysisReport& other) const;

  /// Compact JSON serialization of the full decision path (service wire
  /// format; see README for the schema).
  std::string toJson() const;
};

/// Mutable state threaded through the stages: the input system, the
/// intermediate realizations, and the report the stages fill in.
///
/// Slot ownership: each slot below is written by exactly one stage and
/// released (reset to empty) by the last stage that reads it, so a batch
/// worker holds at most the realizations its current stage needs. Stages
/// write their diagnostics straight into `report`.
struct PipelineState {
  const ds::DescriptorSystem* input = nullptr;  ///< Borrowed; must outlive.
  core::PassivityOptions options;

  /// Set by prerequisites; kept after runPipeline (m1-extraction reads
  /// it, and callers read it to evaluate the proper part in balanced
  /// coordinates).
  ds::BalancedSystem balanced;
  /// The one compression of the balanced E (all four bases), set by
  /// prerequisites; impulse-deflation reuses it for Phi's half-size E
  /// block and releases it.
  linalg::Compression eCompression;
  /// The impulsive-structure record of the balanced system, built once by
  /// prerequisites on `eCompression` (its screens read it); m1-extraction
  /// reads and releases it.
  ds::ImpulsiveStructure structure;
  /// Set by build-phi; released by impulse-deflation.
  shh::ShhRealization phi;
  /// Set by impulse-deflation, which releases `impulseUnobservable` (no
  /// stage reads it); nondynamic-removal releases `reduced`.
  core::ImpulseDeflationResult deflation;
  /// Set by nondynamic-removal; proper-part releases `shh`.
  core::NondynamicRemovalResult nondynamic;
  /// The decoupled stable proper part (the paper's "sidetrack"). Set by
  /// proper-part, read by pr-test; kept after runPipeline for the
  /// margin (core::marginOfRun) and for callers.
  core::ProperPartResult properPart;

  /// The run's result. runPipeline resets it, the stages write their
  /// diagnostics into it, and the run fills in the verdict fields,
  /// order/ports, properOrder, warnings, stage traces and totalSeconds.
  /// `id` and `margin` are left to the caller.
  AnalysisReport report;
};

/// Write the four health records of `report` (reorder, schur, rankPolicy,
/// staircase) as members of the JSON object that `w` has open.
/// AnalysisReport::toJson writes its diagnostics through it, and
/// bench_pipeline its per-order rows, so the two carry one schema.
void writeHealthJson(json::Writer& w, const AnalysisReport& report);

/// Run `body` as the stage `name`: time it, record its peak memory, emit
/// its "stage" span. An exception escaping `body`
/// becomes the trace's Status. runPipeline times every Fig.-1 stage this
/// way; the analyzer times the margin bisection the same way.
StageTrace runTimedStage(const char* name,
                         const std::function<Status()>& body);

/// Run the seven Fig.-1 stages of the paper on `state`: prerequisites,
/// Phi build, impulse deflation, nondynamic removal, M1 extraction/PSD
/// check, proper-part extraction, positive-realness test. Exceptions
/// escaping a stage are translated to operational-error Statuses (no
/// exceptions cross this boundary). Each completed stage is appended to
/// `state.report.stages`, the one per-stage record of a run. The run
/// touches only `state` (and the process-wide telemetry sinks), so
/// concurrent runs on distinct states are safe.
/// Returns:
///   * ok       — all stages passed; state.report.passive == true;
///   * verdict  — a stage declared non-passivity; state.report.failure
///                names the stage;
///   * error    — the analysis failed; state.report is meaningless.
Status runPipeline(PipelineState& state);

}  // namespace shhpass::api
