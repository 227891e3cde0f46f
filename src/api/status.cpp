#include "api/status.hpp"

#include <stdexcept>

#include "linalg/schur_multishift.hpp"

namespace shhpass::api {

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok: return "OK";
    case ErrorCode::NotSquare: return "NOT_SQUARE";
    case ErrorCode::SingularPencil: return "SINGULAR_PENCIL";
    case ErrorCode::UnstableFiniteModes: return "UNSTABLE_FINITE_MODES";
    case ErrorCode::ResidualImpulses: return "RESIDUAL_IMPULSES";
    case ErrorCode::HigherOrderImpulse: return "HIGHER_ORDER_IMPULSE";
    case ErrorCode::M1NotPsd: return "M1_NOT_PSD";
    case ErrorCode::LosslessAxisModes: return "LOSSLESS_AXIS_MODES";
    case ErrorCode::ProperPartNotPr: return "PROPER_PART_NOT_PR";
    case ErrorCode::InvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::NumericalFailure: return "NUMERICAL_FAILURE";
    case ErrorCode::SchurNoConvergence: return "SCHUR_NO_CONVERGENCE";
    case ErrorCode::NetlistParseError: return "NETLIST_PARSE_ERROR";
    case ErrorCode::Internal: return "INTERNAL";
  }
  return "UNKNOWN";
}

const char* warningName(Warning w) {
  switch (w) {
    case Warning::ReorderSwapRejected: return "REORDER_SWAP_REJECTED";
  }
  return "UNKNOWN";
}

bool isVerdictCode(ErrorCode code) {
  switch (code) {
    case ErrorCode::NotSquare:
    case ErrorCode::SingularPencil:
    case ErrorCode::UnstableFiniteModes:
    case ErrorCode::ResidualImpulses:
    case ErrorCode::HigherOrderImpulse:
    case ErrorCode::M1NotPsd:
    case ErrorCode::LosslessAxisModes:
    case ErrorCode::ProperPartNotPr:
      return true;
    default:
      return false;
  }
}

ErrorCode errorCodeFromFailureStage(core::FailureStage stage) {
  switch (stage) {
    case core::FailureStage::None: return ErrorCode::Ok;
    case core::FailureStage::NotSquare: return ErrorCode::NotSquare;
    case core::FailureStage::SingularPencil: return ErrorCode::SingularPencil;
    case core::FailureStage::UnstableFiniteModes:
      return ErrorCode::UnstableFiniteModes;
    case core::FailureStage::ResidualImpulses:
      return ErrorCode::ResidualImpulses;
    case core::FailureStage::HigherOrderImpulse:
      return ErrorCode::HigherOrderImpulse;
    case core::FailureStage::M1NotPsd: return ErrorCode::M1NotPsd;
    case core::FailureStage::LosslessAxisModes:
      return ErrorCode::LosslessAxisModes;
    case core::FailureStage::ProperPartNotPr:
      return ErrorCode::ProperPartNotPr;
  }
  return ErrorCode::Internal;
}

std::optional<core::FailureStage> failureStageFromErrorCode(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok: return core::FailureStage::None;
    case ErrorCode::NotSquare: return core::FailureStage::NotSquare;
    case ErrorCode::SingularPencil: return core::FailureStage::SingularPencil;
    case ErrorCode::UnstableFiniteModes:
      return core::FailureStage::UnstableFiniteModes;
    case ErrorCode::ResidualImpulses:
      return core::FailureStage::ResidualImpulses;
    case ErrorCode::HigherOrderImpulse:
      return core::FailureStage::HigherOrderImpulse;
    case ErrorCode::M1NotPsd: return core::FailureStage::M1NotPsd;
    case ErrorCode::LosslessAxisModes:
      return core::FailureStage::LosslessAxisModes;
    case ErrorCode::ProperPartNotPr:
      return core::FailureStage::ProperPartNotPr;
    default:
      return std::nullopt;
  }
}

std::string Status::toString() const {
  if (ok()) return "OK";
  std::string s = errorCodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

// This function and throwIfOperationalError below are the ONE sanctioned
// exception-handling site in src/api: everything else is Status/Result
// based, and `throw` anywhere else in src/api fails the no-throw-in-api
// rule of tools/lint_invariants.py (status.cpp is the rule's only
// exemption).
Status statusFromCurrentException() {
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    return Status::error(ErrorCode::InvalidArgument, e.what());
  } catch (const linalg::SchurConvergenceError& e) {
    // More-derived first: the typed eigensolver failure would otherwise
    // be swallowed by the generic runtime_error -> NUMERICAL_FAILURE map.
    return Status::error(ErrorCode::SchurNoConvergence, e.what());
  } catch (const std::runtime_error& e) {
    return Status::error(ErrorCode::NumericalFailure, e.what());
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::Internal, e.what());
  } catch (...) {
    return Status::error(ErrorCode::Internal, "unknown exception");
  }
}

void throwIfOperationalError(const Status& status) {
  if (status.ok() || isVerdictCode(status.code())) return;
  if (status.code() == ErrorCode::InvalidArgument)
    throw std::invalid_argument(status.message());
  throw std::runtime_error(status.message());
}

}  // namespace shhpass::api
