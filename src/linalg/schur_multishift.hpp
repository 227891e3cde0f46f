// Multishift QR eigensolver with aggressive early deflation (AED) — the
// BLAS-3 production path behind realSchur() (LAPACK dlaqr0 / dlaqr2 /
// dlaqr5 lineage).
//
// The Francis double-shift iteration (francisSchurWindow below, EISPACK
// lineage) applies every 3x3 bulge reflector across the full
// matrix immediately: O(n) BLAS-1 work per reflector, O(n^3) total, none
// of it blockable. This subsystem converts the bulk of that work into
// calls to the blocked, bit-deterministic gemm() of blas.hpp:
//
//   * small-bulge multishift sweeps (dlaqr5 lineage) — ns shifts are
//     paired into ns/2 bulges chased down the Hessenberg matrix as a
//     chain spaced 3 rows apart. All reflector applications are
//     restricted to a sliding window and accumulated into a small
//     orthogonal factor U; the off-window rows/columns of H and the Q
//     accumulation are then updated with three large gemm() calls per
//     window pass — the O(n^2)-per-sweep bulk of the work.
//   * aggressive early deflation (dlaqr2 lineage, aed.hpp) — before each
//     sweep a trailing window is fully Schur-decomposed by the windowed
//     small-matrix solver below; eigenvalues whose "spike" feet are
//     negligible are deflated on the spot (often converging many
//     eigenvalues per sweep instead of one or two), and the undeflated
//     window eigenvalues are harvested as the next sweep's shifts. The
//     window transform is likewise applied off-window as gemms.
//
// realSchur() dispatches on kSchurCrossover (consistent with
// kHessenbergCrossover and kSvdCrossover): below it francisSchurWindow
// runs on the whole matrix, which is exactly the schurUnblocked() oracle,
// so the result is BIT-IDENTICAL to it (enforced by tests).
// Above it this subsystem runs; its only nondeterminism-relevant
// dependency is gemm(), so results are bit-identical for every
// setGemmThreads() setting (the thread-pool contract of blas.hpp is
// inherited, enforced by tests/test_schur_multishift_random.cpp).
//
// Accuracy: every transformation is orthogonal; the computed (T, Q)
// satisfy Q^T A Q = T + E with ||E|| = O(n eps ||A||), the same backward
// bound as the unblocked iteration. Deflation thresholds follow LAPACK
// (entry negligible against eps times the local diagonal magnitude, with
// a safe-minimum floor), so the two paths agree on eigenvalues to the
// usual eigenvalue condition bounds — not bitwise.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Smallest order for which realSchur() takes the multishift path. Below
/// it francisSchurWindow over the whole matrix is faster AND the dispatch
/// is bit-identical to schurUnblocked (consistent with
/// kHessenbergCrossover and kSvdCrossover).
inline constexpr std::size_t kSchurCrossover = 128;

/// Active blocks smaller than this are finished by the windowed Francis
/// iteration (on a window copy, committed via gemm) instead of further
/// AED/sweep cycles — the dlahqr-style small-matrix threshold, set a
/// little above LAPACK's because the copy-out commit makes the tail
/// cheap.
inline constexpr std::size_t kSchurMinActive = 150;

/// Bulge-chain mini-steps accumulated per sweep window before the
/// window transform is flushed to the off-window parts as gemm calls.
inline constexpr std::size_t kSchurSweepChunk = 32;

/// AED is considered "enough progress to skip the sweep" when it
/// deflates at least this percentage of its window (LAPACK's NIBBLE).
inline constexpr std::size_t kSchurAedNibble = 14;

/// Typed non-convergence error of the QR eigeniteration (thrown by
/// francisSchurWindow, on the unblocked path or inside the multishift
/// path). The public API maps it
/// onto api::ErrorCode::SchurNoConvergence ("SCHUR_NO_CONVERGENCE")
/// instead of the generic NUMERICAL_FAILURE of plain runtime errors.
class SchurConvergenceError : public std::runtime_error {
 public:
  explicit SchurConvergenceError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Health record of one real Schur computation, threaded (alongside
/// ReorderReport) through core::ProperPartResult -> api::AnalysisReport
/// and serialized under diagnostics.schur.
struct SchurReport {
  /// True when the multishift path ran (false: francisSchurWindow over
  /// the whole matrix, which only counts iterations).
  bool multishift = false;
  /// Multishift bulge-chain sweeps performed.
  std::size_t sweeps = 0;
  /// Aggressive-early-deflation windows examined.
  std::size_t aedWindows = 0;
  /// Eigenvalues deflated by AED (the remainder converged inside the
  /// windowed Francis iteration).
  std::size_t aedDeflations = 0;
  /// Shifts consumed by the multishift sweeps (2 per bulge).
  std::size_t shiftsApplied = 0;
  /// Total implicit-QR iterations of the windowed Francis solver
  /// (small active blocks + AED window factorizations on the multishift
  /// path; the whole matrix on the unblocked path).
  std::size_t iterations = 0;
  /// Entries the belt-and-braces repairQuasiTriangularStructure pass had
  /// to zero after the iteration (eps-level deflation leftovers between
  /// blocks). The iterations zero these at deflation time, so any
  /// nonzero count flags a structural regression; pinned to zero by
  /// tests/test_schur_multishift_random.cpp.
  std::size_t structureRepairs = 0;

  /// Accumulate another computation's record (sum counters, OR the
  /// path flag) — for callers that factor several matrices.
  void absorb(const SchurReport& other);

  bool operator==(const SchurReport&) const = default;
};

/// Number of simultaneous shifts the multishift sweep uses for an active
/// block of the given size (even; LAPACK IPARMQ-style schedule).
std::size_t schurShiftCount(std::size_t active);

/// AED window size for an active block of the given size (a little wider
/// than the shift count, so the sweep's shifts come out of one window).
std::size_t schurAedWindow(std::size_t active);

/// Windowed Francis double-shift QR iteration (EISPACK / LAPACK dlahqr
/// lineage): reduce rows/columns [lo, hi] of the upper Hessenberg
/// `h` to quasi-triangular form by orthogonal similarity, applying every
/// transformation across the full matrix (rows of `h` to the right of the
/// window, columns above it) and accumulating it into all rows of `q`
/// (columns [lo, hi]); a 0 x 0 `q` skips the accumulation. Used by the
/// multishift driver for small active blocks, by the AED step for the
/// window factorization, and over the whole matrix ([0, n-1]) by
/// schurUnblocked and by realSchur/eigenvalues below kSchurCrossover. The
/// diagonal blocks it leaves are NOT yet standardized (see
/// standardizeQuasiTriangular). Subdiagonal entries judged negligible at
/// deflation time are zeroed immediately, so no eps-level leftovers
/// remain between blocks. Throws SchurConvergenceError when a window
/// eigenvalue fails to converge within the iteration budget.
void francisSchurWindow(Matrix& h, Matrix& q, std::size_t lo, std::size_t hi,
                        SchurReport* report = nullptr);

/// Multishift QR with aggressive early deflation on an upper Hessenberg
/// matrix: reduce `h` (n x n, upper Hessenberg) to quasi-triangular form
/// in place, accumulating every transformation into `q` (n x n, typically
/// the Hessenberg Q on entry). The result is NOT yet standardized or
/// repaired — realSchur() runs the same cleanup pass as the unblocked
/// path afterwards. Throws SchurConvergenceError on iteration-budget
/// exhaustion.
void multishiftSchurHessenberg(Matrix& h, Matrix& q,
                               SchurReport* report = nullptr);

}  // namespace shhpass::linalg
