// Stage-pipeline engine for the Fig.-1 passivity test. Each box of the
// paper's flowchart is a Stage object with a uniform
//     run(PipelineState&) -> Status
// interface; the Pipeline runs them in order with per-stage wall-clock
// timing and an optional diagnostic observer (this subsumes the per-stage
// instrumentation the ablation bench used to hand-roll).
//
// Status semantics inside the pipeline:
//   * ok            -> continue to the next stage;
//   * verdict code  -> the Fig.-1 flow reached a NOT-PASSIVE exit: the run
//                      stops, the analysis itself SUCCEEDED;
//   * error code    -> the analysis failed (bad input / numerical
//                      breakdown); the run stops and the error propagates.
//
// run() executes the stages strictly in order on the calling thread. The
// Fig.-1 chain is sequential (every stage reads what the previous one
// built), so there is one execution mode; parallelism lives one level up,
// across analyses (PassivityAnalyzer::runBatch), and one level down,
// inside the gemm kernel (linalg/blas.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/passivity_test.hpp"
#include "core/proper_part.hpp"
#include "ds/balance.hpp"
#include "shh/shh_pencil.hpp"

namespace shhpass::api {

/// Mutable state threaded through the stages: the input system, the
/// intermediate realizations, and the accumulated legacy-compatible
/// diagnostics (core::PassivityResult) from which reports are built.
///
/// Slot ownership: each slot below is written by exactly one stage and
/// released (reset to empty) by the last stage that reads it, so a batch
/// worker holds at most the realizations its current stage needs. Stages
/// write their diagnostics straight into `result`.
struct PipelineState {
  const ds::DescriptorSystem* input = nullptr;  ///< Borrowed; must outlive.
  core::PassivityOptions options;

  /// Set by prerequisites; kept after run() (m1-extraction reads it, and
  /// callers read it to evaluate the proper part in balanced coordinates).
  ds::BalancedSystem balanced;
  /// Set by build-phi; released by impulse-deflation.
  shh::ShhRealization phi;
  /// Set by impulse-deflation, which releases `vKeep` and
  /// `impulseUnobservable` (no stage reads them); nondynamic-removal
  /// releases `reduced`; m1-extraction reads and then releases
  /// `halfECompression`.
  core::ImpulseDeflationResult deflation;
  /// Set by nondynamic-removal; proper-part releases `shh`.
  core::NondynamicRemovalResult nondynamic;

  /// Verdict + diagnostics, identical in content to the legacy
  /// testPassivityShh result (the deprecated shim returns exactly this).
  /// pr-test reads the proper part from result.properPart.
  core::PassivityResult result;
};

/// One box of the Fig.-1 flowchart.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual Status run(PipelineState& state) = 0;
};

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

/// Run `body` as the stage `name`: time it, record its peak memory, emit
/// its "stage" span and stage metrics. An exception escaping `body`
/// becomes the trace's Status. Pipeline::run times every Fig.-1 stage
/// this way; the analyzer times the margin bisection the same way.
StageTrace runTimedStage(const char* name,
                         const std::function<Status()>& body);

/// An ordered sequence of stages with timing and diagnostic hooks.
class Pipeline {
 public:
  using Observer = std::function<void(const StageTrace&)>;

  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// The seven-stage Fig.-1 pipeline of the paper: prerequisites, Phi
  /// build, impulse deflation, nondynamic removal, M1 extraction/PSD
  /// check, proper-part extraction, positive-realness test.
  static Pipeline standard();

  /// Append a stage; stages run in the order they were added.
  Pipeline& addStage(std::unique_ptr<Stage> stage);
  const std::vector<std::unique_ptr<Stage>>& stages() const {
    return stages_;
  }

  /// Run the stages on `state`. Exceptions escaping a stage are translated
  /// to operational-error Statuses (no exceptions cross this boundary).
  /// Each completed stage is appended to `traces` (if non-null) and handed
  /// to `observer` (if set).
  ///
  /// Observer threading contract: the observer is invoked synchronously on
  /// the thread calling run(), once per completed stage, never after run()
  /// returns. The analyzer snapshots its installed observer under a mutex
  /// before each analysis (see PassivityAnalyzer::setStageObserver), so
  /// swapping observers concurrently with a running analysis is safe; a
  /// callable shared across concurrent analyses must itself be
  /// thread-safe, because two run() calls may invoke it concurrently.
  /// Returns:
  ///   * ok       — all stages passed; state.result.passive == true;
  ///   * verdict  — a stage declared non-passivity; state.result.failure
  ///                names the stage;
  ///   * error    — the analysis failed; state.result is meaningless.
  Status run(PipelineState& state, std::vector<StageTrace>* traces = nullptr,
             const Observer& observer = nullptr) const;

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
};

/// The shared immutable instance of Pipeline::standard() used by both the
/// analyzer facade and the deprecated core::testPassivityShh shim (one
/// construction site, so the two entry points cannot diverge).
const Pipeline& standardPipeline();

}  // namespace shhpass::api
