// The proposed DS passivity test (Fig. 1 of the paper): an O(n^3)
// structure-preserving pipeline on the SHH realization of Phi = G + G~.
//
//   0. prerequisites: square, regular pencil, stable finite modes
//   1. build Phi (Eq. 10)
//   2. deflate impulse-unobservable/-uncontrollable modes (Eqs. 11-17)
//   3. check impulse-freeness; remove nondynamic modes (Eqs. 18-20)
//   4. higher-order impulse check + extract M1 and test M1 >= 0 (Eqs. 24-25)
//   5. normalize E and extract the stable proper part (Eqs. 21-23)
//   6. positive-realness test on the proper part (Sec. 2.2)
//
// This header holds the vocabulary of that flow: where it can stop and
// the options every stage reads. The stages themselves run in
// api/pipeline.hpp (runPipeline), which records every stage's diagnostics
// in api::AnalysisReport so the Fig.-1 decision path is auditable; the
// entry point is api::PassivityAnalyzer (api/shhpass.hpp).
#pragma once

#include <string>

namespace shhpass::core {

/// Where (if anywhere) the Fig.-1 flow declared the system non-passive.
enum class FailureStage {
  None,               ///< Passive.
  NotSquare,          ///< u^T y power interpretation requires square G.
  SingularPencil,     ///< (E, A) not regular: G undefined.
  UnstableFiniteModes,///< Finite dynamic mode with Re >= 0.
  ResidualImpulses,   ///< Phi not impulse-free after the deflation pass.
  HigherOrderImpulse, ///< Grade >= 3 chains: some Mk != 0 for k >= 2.
  M1NotPsd,           ///< M1 not symmetric positive semidefinite.
  LosslessAxisModes,  ///< A4 spectrum touches the imaginary axis; the
                      ///< stable/antistable split (Eq. 22) fails.
  ProperPartNotPr     ///< Extracted proper part fails positive realness.
};

/// Human-readable name of a failure stage.
std::string failureStageName(FailureStage s);

/// Options for the proposed test.
struct PassivityOptions {
  double rankTol = -1.0;   ///< Rank tolerance for all deflation SVDs;
                           ///< must be finite (negative = shared SVD
                           ///< default, linalg/svd.hpp).
  double imagTol = 1e-8;   ///< Imaginary-axis tolerance for spectra;
                           ///< must be finite and >= 0.
  bool skipPrerequisites = false;  ///< Skip the regularity/stability
                                   ///< screens (when the caller already
                                   ///< knows); E's compression and the
                                   ///< structure record are still built.
  bool balance = true;     ///< Balance the pencil first (frequency scaling
                           ///< + equilibration); strongly recommended for
                           ///< physical-unit models.
};

}  // namespace shhpass::core
