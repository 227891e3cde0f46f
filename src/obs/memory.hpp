// Allocation accounting: a process-wide live-bytes counter fed by the
// Matrix / kernel-workspace allocators, with high-water-mark windows
// (MemScope) the pipeline opens around each stage to report per-stage
// peak bytes into StageTrace / AnalysisReport / BENCH_pipeline.json.
//
// ## Design
//
//   * The live-bytes counter is maintained UNCONDITIONALLY as one
//     relaxed atomic add per allocate/deallocate — always balanced, so
//     toggling the telemetry flags mid-flight can never skew it. The
//     cost is noise next to the allocation itself.
//   * Peak tracking (the process high-water mark and the per-stage
//     MemScope windows) is gated on memoryEnabled(): when off, an
//     allocation pays one relaxed load + branch beyond the live
//     counter. Scope windows are a mutex-guarded list walked per
//     allocation — Matrix allocations are thousands per analysis, not
//     millions, and the lock is uncontended in the common case.
//   * Under concurrent runBatch workers, stage windows on different
//     threads see each other's allocations; peakBytes is "peak live
//     bytes while the stage ran", which is the capacity-planning number
//     a service wants (never compared by decisionEquals).
#pragma once

#include <cstddef>
#include <cstdint>

namespace shhpass::obs {

/// Peak/window accounting switch (the live counter always runs).
bool memoryEnabled();
void setMemoryEnabled(bool enabled);

/// Called by the counting allocators (linalg::Matrix storage, kernel
/// pack buffers). Balanced by construction.
void memAcquire(std::size_t bytes);
void memRelease(std::size_t bytes);

/// Live tracked bytes right now (clamped at 0: allocations made before
/// the process-lifetime counter existed cannot underflow it).
std::size_t memLiveBytes();

/// Process-lifetime high-water mark of the live counter (0 until
/// memory accounting is first enabled).
std::size_t memPeakBytes();

struct MemScopeNode;  // internal (memory.cpp)

/// High-water-mark window: records the peak live bytes observed between
/// construction and the peakBytes() call. Inert (always 0) when
/// memoryEnabled() is false at construction.
class MemScope {
 public:
  MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;
  ~MemScope();

  /// Peak live bytes observed while this scope was active (including
  /// the level at construction).
  std::size_t peakBytes() const;

 private:
  MemScopeNode* node_ = nullptr;  ///< Null when accounting was off.
};

}  // namespace shhpass::obs
