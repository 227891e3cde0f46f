// Status-based error model for the public shhpass API. No exceptions cross
// the API boundary: the legacy std::invalid_argument / std::runtime_error
// throws of the inner layers and the Fig.-1 FailureStage verdicts both map
// onto one typed ErrorCode space with human-readable messages.
//
// Two families of codes share the space:
//   * verdict codes — the Fig.-1 stage that declared the system
//     non-passive. The analysis itself SUCCEEDED; the report carries the
//     verdict. `isVerdictCode` distinguishes them.
//   * operational errors — malformed input (InvalidArgument), numerical
//     breakdown inside a kernel (NumericalFailure), or anything unexpected
//     (Internal). These make the whole analysis fail.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "core/passivity_test.hpp"

namespace shhpass::api {

/// Typed error codes of the public API.
enum class ErrorCode {
  Ok = 0,

  // Verdict codes: one per core::FailureStage (except None == Ok).
  NotSquare,            ///< FailureStage::NotSquare
  SingularPencil,       ///< FailureStage::SingularPencil
  UnstableFiniteModes,  ///< FailureStage::UnstableFiniteModes
  ResidualImpulses,     ///< FailureStage::ResidualImpulses
  HigherOrderImpulse,   ///< FailureStage::HigherOrderImpulse
  M1NotPsd,             ///< FailureStage::M1NotPsd
  LosslessAxisModes,    ///< FailureStage::LosslessAxisModes
  ProperPartNotPr,      ///< FailureStage::ProperPartNotPr

  // Operational errors.
  InvalidArgument,     ///< Malformed request (was std::invalid_argument).
  NumericalFailure,    ///< Kernel breakdown (was std::runtime_error).
  SchurNoConvergence,  ///< The real Schur QR iteration exhausted its
                       ///< iteration budget (linalg::SchurConvergenceError;
                       ///< historically an untyped std::runtime_error).
  NetlistParseError,   ///< A SPICE-subset netlist failed to parse; the
                       ///< message carries the line-numbered typed
                       ///< diagnostics (api/ingest.hpp).
  Internal,            ///< Unexpected failure (was any other exception).
};

/// Stable machine-readable name of a code (e.g. "M1_NOT_PSD").
const char* errorCodeName(ErrorCode code);

/// Non-fatal diagnostic conditions attached to an otherwise successful
/// analysis. Warnings never change the verdict; they flag reduced
/// confidence and are serialized into the AnalysisReport JSON.
enum class Warning {
  /// The Schur reordering behind the Eq.-(22) stable/antistable split
  /// rejected at least one numerically ill-posed adjacent-block exchange
  /// (nearly shared eigenvalues across the swap). The spectrum itself was
  /// left intact, but the requested ordering is incomplete, so a
  /// LOSSLESS_AXIS_MODES verdict reached this way is conservative rather
  /// than certain. See AnalysisReport::reorder for the counts.
  ReorderSwapRejected = 0,
};

/// Stable machine-readable name of a warning ("REORDER_SWAP_REJECTED").
const char* warningName(Warning w);

/// True for the Fig.-1 verdict codes (analysis succeeded, system is not
/// passive); false for Ok and the operational errors.
bool isVerdictCode(ErrorCode code);

/// FailureStage -> ErrorCode (None maps to Ok).
ErrorCode errorCodeFromFailureStage(core::FailureStage stage);

/// ErrorCode -> FailureStage for verdict codes and Ok; operational errors
/// have no stage and return std::nullopt.
std::optional<core::FailureStage> failureStageFromErrorCode(ErrorCode code);

/// An error code plus a human-readable message. Default-constructed and
/// `Status::ok()` both mean success.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status okStatus() { return Status(); }
  static Status error(ErrorCode code, std::string message) {
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == ErrorCode::Ok; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK", or the code name followed by ": " and the message.
  std::string toString() const;

 private:
  ErrorCode code_ = ErrorCode::Ok;
  std::string message_;
};

/// Status produced by translating the exception currently in flight.
/// Call only from inside a catch block.
Status statusFromCurrentException();

/// The way back for the exception-based wrappers over runPipeline
/// (core::passivityMargin, core::reduceDescriptor): returns for Ok and
/// verdict codes, throws std::invalid_argument for InvalidArgument and
/// std::runtime_error for every other operational error.
void throwIfOperationalError(const Status& status);

/// A Status or a value of type T. `ok()` guarantees `value()` is present.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}       // NOLINT(implicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(implicit)

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const { return *value_; }
  T& value() { return *value_; }
  const T& operator*() const { return *value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace shhpass::api
