// The ONE sanctioned monotonic-clock call site of the library.
//
// Every wall-clock measurement in src/ — StageTrace seconds, span
// begin/end stamps — flows through monotonicNowNs()
// so all timelines share one epoch and one clock (std::chrono::
// steady_clock). Direct *_clock::now() calls anywhere else in src/ are
// banned by tools/lint_invariants.py rule `no-raw-clock`; bench/ and
// examples/ may still time things however they like.
//
// Timestamps are nanoseconds since the first call in the process (a
// process-local epoch keeps the values small enough that Chrome's
// trace viewer, which works in double-precision microseconds, never
// loses span pairing precision).
#pragma once

#include <chrono>
#include <cstdint>

namespace shhpass::obs {

namespace detail {
inline std::chrono::steady_clock::time_point processEpoch() {
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return kEpoch;
}
}  // namespace detail

/// Monotonic nanoseconds since the process-local epoch.
inline std::uint64_t monotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - detail::processEpoch())
          .count());
}

/// Seconds between two monotonicNowNs() stamps.
inline double nsToSeconds(std::uint64_t t0Ns, std::uint64_t t1Ns) {
  return static_cast<double>(t1Ns - t0Ns) * 1e-9;
}

}  // namespace shhpass::obs
