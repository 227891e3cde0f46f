// Extension (Sec. 4 remarks of the paper): passivity margin and the hook
// for passivity *enforcement* on top of the SHH framework.
//
// The frequency-domain violation of a stable DS is
//     v = min over w of lambda_min( G(jw) + G(jw)^* ),
// and the margin is v/2: the largest uniform series resistance that could
// be removed from every port while staying passive (or, if negative, the
// smallest that must be added to repair it). Because D-shifts do not touch
// the impulsive structure, the margin is computed on the extracted stable
// proper part Hp by bisection over the Hamiltonian imaginary-axis
// certificate — O(n^3 log(1/tol)), no frequency sweep.
//
// The proper part is the one the standard Fig.-1 pipeline
// (api/pipeline.hpp) already builds: marginOfRun bisects on a finished
// run, which is how the analyzer serves AnalysisRequest::marginTol inside
// a batch, and passivityMargin is the standalone wrapper that runs the
// pipeline first.
#pragma once

#include "core/passivity_test.hpp"
#include "ds/descriptor.hpp"

namespace shhpass::core {

/// Result of a passivity-margin computation.
struct PassivityMargin {
  bool defined = false;   ///< False if the margin concept does not apply:
                          ///< unstable, singular pencil, or an impulsive
                          ///< defect (indefinite M1 / higher-order chains)
                          ///< that no feedthrough shift can repair.
  double margin = 0.0;    ///< min_w lambda_min(G + G^*)/2. Positive: the
                          ///< system is passive with that much headroom;
                          ///< negative: add -margin * I to D to enforce
                          ///< passivity.
  FailureStage structuralDefect = FailureStage::None;  ///< Why undefined.
};

/// Margin of a completed Fig.-1 pipeline run. Runs that reached the
/// positive-realness test (passive, or FailureStage::ProperPartNotPr)
/// bisect on their own `run.properPart` to absolute tolerance `tol`;
/// every other failure is a structural defect and leaves the margin
/// undefined with `structuralDefect = run.failure`.
///
/// The delta = 0 probe is not re-run: it is the run's own verdict
/// (`run.failure == FailureStage::None`), which the pr-test stage decided
/// with the same test on the same proper part. That reuse is exact only
/// if `imagTol` is the run's PassivityOptions::imagTol, and every shifted
/// probe uses it too.
PassivityMargin marginOfRun(const PassivityResult& run, double tol,
                            double imagTol);

/// Compute the passivity margin of a descriptor system: runs the standard
/// pipeline (testPassivityShh) with `rankTol` (negative = shared SVD
/// default) threaded into every rank decision, then marginOfRun with
/// that run's (default) imagTol. `tol` is
/// the absolute bisection tolerance on the margin value. Operational
/// failures throw as in testPassivityShh (std::invalid_argument for bad
/// input, otherwise std::runtime_error).
PassivityMargin passivityMargin(const ds::DescriptorSystem& g,
                                double tol = 1e-6, double rankTol = -1.0);

/// Passivity enforcement by feedthrough augmentation: returns a copy of g
/// with D increased by (margin deficit + headroom) * I when the system has
/// a repairable (proper-part) violation; returns the input unchanged when
/// already passive. Throws std::invalid_argument when the defect is
/// impulsive/structural and cannot be repaired this way. `rankTol` as in
/// passivityMargin.
ds::DescriptorSystem enforcePassivity(const ds::DescriptorSystem& g,
                                      double headroom = 1e-9,
                                      double rankTol = -1.0);

}  // namespace shhpass::core
