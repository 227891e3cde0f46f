// The benchmark's own span recorder. Spans are taken around calls into
// the library's public entry points (never inside the library), kept in
// memory, aggregated by name at the end of a traced run and dumped as
// JSON. A null SpanLog* means "untraced": ScopedSpan then costs one branch.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsBetween(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "core.proper_part".
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  long parent = -1;  ///< Index of the enclosing span, -1 at the root.
  long item = -1;    ///< Workload item the span worked on (-1: none).
};

class SpanLog {
 public:
  /// Open a span under the innermost open one; returns its index.
  std::size_t open(const std::string& name, long item);
  void close(std::size_t index);

  /// Sum of the durations of every span called `name`.
  double totalSeconds(const std::string& name) const;

  /// Append the spans as a JSON array to `f`.
  void writeJsonArray(std::FILE* f) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, long item = -1)
      : log_(log), index_(log ? log->open(name, item) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
