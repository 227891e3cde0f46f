#include "core/passivity_test.hpp"

namespace shhpass::core {

std::string failureStageName(FailureStage s) {
  switch (s) {
    case FailureStage::None: return "none (passive)";
    case FailureStage::NotSquare: return "system not square";
    case FailureStage::SingularPencil: return "singular pencil";
    case FailureStage::UnstableFiniteModes: return "unstable finite modes";
    case FailureStage::ResidualImpulses:
      return "residual impulsive modes in Phi";
    case FailureStage::HigherOrderImpulse:
      return "grade >= 3 impulsive structure (Mk != 0, k >= 2)";
    case FailureStage::M1NotPsd: return "M1 not symmetric PSD";
    case FailureStage::LosslessAxisModes:
      return "imaginary-axis modes in the proper-part Hamiltonian";
    case FailureStage::ProperPartNotPr:
      return "proper part not positive real";
  }
  return "unknown";
}

}  // namespace shhpass::core
