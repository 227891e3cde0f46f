// BLAS-level kernels on shhpass::linalg::Matrix.
//
// This is the dense hot-path layer of the library: every O(n^3) stage of
// the SHH passivity pipeline (Hessenberg reduction, Schur reordering
// window updates, stable-subspace products, Lyapunov/Sylvester solves)
// bottoms out in the routines declared here.
//
// Two gemm kernels live behind one entry point:
//
//   * gemmReference — the historical naive i-k-j triple loop. It is kept
//     as the correctness oracle for the blocked kernel (see
//     tests/test_blas_blocked.cpp) and as the micro-benchmark baseline.
//   * a packed, cache-blocked BLAS-3 kernel (see blas.cpp) that gemm()
//     dispatches to for large-enough products.
//
// gemm() takes the blocked kernel exactly when m >= 4, n >= 8, k >= 4
// and m*n*k >= 64^3 (kGemmBlockedFlopFloor); every other product runs
// gemmReference. These are literal thresholds: they do not depend on the
// CPU or on the tile the blocked kernel picks.
//
// ## Views
//
// gemm() has two forms. The view form reads A and B and writes C through
// ConstMatrixView / MatrixView — {data pointer, rows, cols, leading
// dimension} over a row-major Matrix — so a kernel can update a block of
// a larger matrix in place (the Hessenberg trailing update, the QR
// window flushes) instead of copying it out with Matrix::block() and
// back with setBlock(). The Matrix form is a one-line wrapper over it.
// Both forms run the same dispatch, tiles, fan-out and per-element
// sequence, so a product gives the same bits whichever form it takes and
// whatever the operands' leading dimensions are. C must not overlap A or
// B (A and B may overlap each other).
//
// ## Blocking parameters
//
// The blocked kernel follows the BLIS/GotoBLAS loop nest. Tile sizes are
// compile-time constants, chosen for ~32-48 KiB L1 / 256 KiB-2 MiB L2
// caches on commodity x86-64 and AArch64 cores. Two register tiles exist:
//
//   * kGemmMr x kGemmNr (4 x 8)  — the portable tile, and the AVX2+FMA
//     one (eight ymm accumulators);
//   * kGemmWideMr x kGemmWideNr (8 x 24) — the AVX-512F tile (24 zmm
//     accumulators), taken on CPUs that have AVX-512F for products with
//     m >= kGemmWideMinRows and n >= kGemmWideMinCols; smaller products
//     keep the 4 x 8 tile, which pads less at the edges;
//   * kGemmKc (256)              — K extent of one packed panel pair;
//   * kGemmMc (128)              — M extent of one packed A block
//     (kGemmMc x kGemmKc doubles = 256 KiB, sized for L2);
//   * kGemmNc (512)              — N extent of one packed B panel
//     (kGemmKc x kGemmNc doubles = 1 MiB; the wide tile uses the largest
//     multiple of 24 below it, 504).
//
// Operands are packed (with the transpose resolved and alpha folded into
// the A pack) into contiguous micro-panel layouts, so the micro-kernel
// reads both inputs with unit stride regardless of op(A)/op(B). The
// micro-kernel and the instruction set are picked once per process with
// __builtin_cpu_supports (AVX-512F, else AVX2+FMA, else portable C++),
// and the tile per product from its shape.
//
// ## Per-element contract
//
// Whatever tile, CPU path or thread count runs, the blocked kernel
// computes each element of C as:
//
//     c = beta * c                       (skipped when beta == 1)
//     for each KC block of k, ascending (none when alpha == 0):
//       acc = 0
//       for each k in the block, ascending:
//         acc = fma(alpha * a_ik, b_kj, acc)
//       c = c + acc
//
// with alpha * a_ik rounded once (it is packed). On a CPU without
// AVX2+FMA the portable tile rounds the product and the sum separately
// (acc = acc + round(alpha * a_ik * b_kj)). So on one machine the 4 x 8
// and 8 x 24 tiles give identical bits; tests/test_blas_blocked.cpp
// replays this sequence with std::fma and compares bit for bit.
//
// ## Threading contract
//
// setGemmThreads(t) with t > 1 parallelizes the blocked kernel on a
// lazily created, process-wide linalg::ThreadPool
// (linalg/thread_pool.hpp). A product fans out over whichever dimension
// of C is larger: a tall product (m > n) over balanced runs of whole
// row tiles, so no worker packs all of A, and a wide or square one over
// runs of whole column tiles. The contract is:
//
//   * determinism — by the per-element contract above, each C element
//     is accumulated in the same order regardless of the thread count or
//     of which rows/columns a worker owns, so results are bit-identical
//     between serial and threaded runs, for every thread count, across
//     repeated runs;
//   * the pool is used only by three kernels, each of which splits its
//     output into pieces whose every element is computed the same way
//     whoever computes it:
//       - gemm() calls that dispatch to the blocked kernel AND exceed
//         kGemmThreadedFlopFloor;
//       - dotRows() calls above kDotRowsThreadedFloor (the Hessenberg
//         panel's A0 v and the skew tridiagonalization's at u, whose
//         rows are independent dotQuad calls);
//       - applyRowOps() calls above kRowOpsThreadedFloor (the replay of
//         the bidiagonal QR sweep's rotations, by column blocks);
//     small calls never touch the pool, and no other file reaches it
//     (the kernel-pool-in-blas lint rule keeps
//     linalg/thread_pool.hpp out of every other source file);
//   * gemm() may be called concurrently from many threads (e.g. from
//     runBatch workers); the kernel pool is shared, but each call waits
//     only for its own panels and rethrows only their exceptions, and
//     never deadlocks (kernel-pool workers themselves never call gemm);
//   * the default is serial (threads == 1): callers who never call
//     setGemmThreads get no thread pool and no behavioral change;
//   * setGemmThreads may be called concurrently with in-flight gemm()
//     calls: the kernel pins the pool it started with (shared ownership),
//     so a concurrent reconfigure never tears a pool out from under a
//     running product (race-checked by the tsan CI job and
//     tests/test_thread_pool_stress.cpp);
//   * the environment variable SHHPASS_GEMM_THREADS, read once at the
//     first threaded-eligible gemm() (or gemmThreads()) call, supplies a
//     process-wide default thread count when setGemmThreads was never
//     called explicitly — the tsan CI job forces the threaded path under
//     the whole test suite this way. Explicit setGemmThreads always wins;
//     by the determinism contract the setting can never change results,
//     only scheduling.
//
// ## Numerical accuracy
//
// Both kernels satisfy the usual inner-product forward-error bound
// |fl(C) - C| <= k * eps * (|alpha| |op(A)| |op(B)| + |beta| |C|)
// entrywise (k the inner dimension). The blocked kernel sums each element
// in a different (KC-block) order than the reference kernel, so the
// two agree only to that bound — about 1e-13 relative for the k <= a few
// thousand used here — not bitwise. All other routines in this header are
// exact per-element transcriptions (no reassociation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Register micro-tile rows of the blocked gemm kernel.
inline constexpr std::size_t kGemmMr = 4;
/// Register micro-tile columns of the blocked gemm kernel.
inline constexpr std::size_t kGemmNr = 8;
/// Register micro-tile rows of the AVX-512F blocked gemm kernel.
inline constexpr std::size_t kGemmWideMr = 8;
/// Register micro-tile columns of the AVX-512F blocked gemm kernel.
inline constexpr std::size_t kGemmWideNr = 24;
/// Smallest m for which a product runs on the AVX-512F tile.
inline constexpr std::size_t kGemmWideMinRows = 64;
/// Smallest n for which a product runs on the AVX-512F tile.
inline constexpr std::size_t kGemmWideMinCols = 96;
/// M extent of one packed A block (L2-sized).
inline constexpr std::size_t kGemmMc = 128;
/// K extent of one packed panel pair (L1-sized with kGemmNr).
inline constexpr std::size_t kGemmKc = 256;
/// N extent of one packed B panel (L3-sized).
inline constexpr std::size_t kGemmNc = 512;
/// Minimum m*n*k for which gemm() dispatches to the blocked kernel.
inline constexpr std::size_t kGemmBlockedFlopFloor = 64 * 64 * 64;
/// Minimum m*n*k for which a threaded gemm() actually fans out.
inline constexpr std::size_t kGemmThreadedFlopFloor = 192 * 192 * 192;
/// Minimum rows*len for which a threaded dotRows() fans out.
inline constexpr std::size_t kDotRowsThreadedFloor = 256 * 256;
/// Minimum ops * (columns of all targets) for which a threaded
/// applyRowOps() fans out.
inline constexpr std::size_t kRowOpsThreadedFloor = 256 * 256;
/// Columns per block of applyRowOps(): a block of a 640-row target is
/// 320 KiB, so the whole op sequence replays on it from L2.
inline constexpr std::size_t kRowOpsBlockCols = 64;

/// Read-only view of a block of a row-major matrix: element (i, j) is
/// data[i * ld + j]. A view owns nothing and must not outlive the storage
/// it was taken from.
struct ConstMatrixView {
  const double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t ld = 0;  ///< Leading dimension (>= cols).

  ConstMatrixView(const double* d, std::size_t r, std::size_t c,
                  std::size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  /// The whole matrix.
  ConstMatrixView(const Matrix& m)  // implicit: a Matrix is a view
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}

  double operator()(std::size_t i, std::size_t j) const {
    return data[i * ld + j];
  }
  /// The p x q block with top-left corner (i, j); throws
  /// std::invalid_argument when it does not fit.
  ConstMatrixView block(std::size_t i, std::size_t j, std::size_t p,
                        std::size_t q) const;
};

/// Writable view of a block of a row-major matrix (see ConstMatrixView).
struct MatrixView {
  double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t ld = 0;  ///< Leading dimension (>= cols).

  MatrixView(double* d, std::size_t r, std::size_t c, std::size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  /// The whole matrix.
  MatrixView(Matrix& m)  // implicit: a Matrix is a view
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}

  double& operator()(std::size_t i, std::size_t j) const {
    return data[i * ld + j];
  }
  /// The p x q block with top-left corner (i, j); throws
  /// std::invalid_argument when it does not fit.
  MatrixView block(std::size_t i, std::size_t j, std::size_t p,
                   std::size_t q) const;
  operator ConstMatrixView() const {
    return {data, rows, cols, ld};
  }
};

/// A zero-filled rows x cols view (leading dimension cols) over the
/// storage of `ws`, which is reallocated only when it is too small: the
/// reusable output buffer of the in-place kernels' off-block products.
MatrixView zeroedWorkspace(Matrix& ws, std::size_t rows, std::size_t cols);

/// C = alpha * op(A) * op(B) + beta * C, where op is identity or transpose.
/// C must already have the correct shape and must not alias a or b (the
/// inputs may alias each other). Dispatches between the blocked and the
/// reference kernel; see the header comment for the exact contract.
void gemm(double alpha, const Matrix& a, bool transA, const Matrix& b,
          bool transB, double beta, Matrix& c);

/// gemm() on views: the same contract, bit for bit, on blocks of larger
/// matrices. C must not overlap A or B.
void gemm(double alpha, ConstMatrixView a, bool transA, ConstMatrixView b,
          bool transB, double beta, MatrixView c);

/// The naive i-k-j reference kernel (identical semantics to gemm).
/// Exercised directly by the equivalence tests and the kernel benchmarks;
/// production code should call gemm().
void gemmReference(double alpha, const Matrix& a, bool transA,
                   const Matrix& b, bool transB, double beta, Matrix& c);

/// The blocked kernel without the size dispatch (identical semantics to
/// gemm). Exposed for benchmarks and equivalence tests; production code
/// should call gemm(), which picks the faster kernel per shape.
void gemmBlocked(double alpha, const Matrix& a, bool transA, const Matrix& b,
                 bool transB, double beta, Matrix& c);

/// Number of worker threads the blocked gemm kernel fans out to (1 when
/// the kernel pool has never been enabled).
std::size_t gemmThreads();

/// Enable (t > 1) or disable (t <= 1) threading of the blocked kernel,
/// of dotRows() and of applyRowOps(); t == 0 means
/// std::thread::hardware_concurrency().
/// t == 1 (or 0 on a single-core host) structurally bypasses the pool —
/// no pool exists and gemm runs inline — and is bit-identical to every
/// threaded setting (see threading contract). Safe to call concurrently
/// with in-flight gemm() calls: running products keep the pool they
/// started with alive until their panels drain.
void setGemmThreads(std::size_t t);

/// Returns op(A) * op(B).
Matrix multiply(const Matrix& a, bool transA, const Matrix& b, bool transB);

/// Returns A^T * B without forming A^T.
Matrix atb(const Matrix& a, const Matrix& b);

/// Returns A * B^T without forming B^T.
Matrix abt(const Matrix& a, const Matrix& b);

/// Dot product sum_i x[i] * y[i] over contiguous arrays, accumulated in
/// FOUR independent partial sums combined as (s0 + s1) + (s2 + s3). The
/// fixed reduction order keeps the result deterministic and independent
/// of thread count; like the gemm micro-kernel, an AVX2+FMA clone is
/// selected once at startup, so rounding may differ between machines but
/// never between runs. This is the building block for the hot gemv-style
/// row dots of the Hessenberg panel, the skew tridiagonalization, and the
/// symplectic reflector passes.
double dotQuad(const double* x, const double* y, std::size_t len);

/// y[i] = dotQuad(a + i * lda, x, len) for every i < rows: the row-dot
/// gemv of the Hessenberg panel and the skew tridiagonalization. Above
/// kDotRowsThreadedFloor multiply-adds the rows fan out in contiguous
/// blocks over the gemm kernel pool; each row's dotQuad is the same
/// whoever runs it, so y is bit-identical at every gemm width. `y` must
/// not overlap `a` or `x`.
void dotRows(const double* a, std::size_t lda, std::size_t rows,
             const double* x, std::size_t len, double* y);

/// y[i] += alpha * x[i] over contiguous arrays — exact per-element update
/// (each y[i] receives exactly one fused or rounded multiply-add; no
/// reassociation), with the same per-machine AVX2 dispatch as dotQuad.
void axpy(double alpha, const double* x, std::size_t len, double* y);

/// Plane rotation on contiguous arrays:
/// (x[i], y[i]) <- (cs * x[i] + sn * y[i], -sn * x[i] + cs * y[i]).
/// Exact per-element transcription of the two-line scalar update, with
/// the same per-machine AVX2 dispatch as dotQuad.
void planeRot(double cs, double sn, double* x, double* y, std::size_t len);

/// One step of a recorded sequence of row operations on a row-major
/// matrix (the bidiagonal QR sweep's rotations, sign flips and swaps;
/// see applyRowOps).
struct RowOp {
  enum class Kind : std::uint8_t { Rotate, Negate, Swap };
  Kind kind = Kind::Rotate;
  std::uint8_t target = 0;  ///< Index into applyRowOps' targets.
  std::uint32_t x = 0;      ///< First row.
  std::uint32_t y = 0;      ///< Second row (Rotate, Swap).
  double cs = 1.0;          ///< Rotate only.
  double sn = 0.0;          ///< Rotate only.
};

/// Applies `ops`, in order, to the rows of targets[op.target]; per column
/// i of the target:
///
///   Rotate: (x_i, y_i) <- (cs * x_i + sn * y_i, -sn * x_i + cs * y_i)
///   Negate: x_i <- -x_i
///   Swap:   x_i <-> y_i
///
/// A rotation rounds each of its four products and two sums separately —
/// never fused, unlike planeRot's AVX2 clone — which is the arithmetic of
/// the sweep's own row loops; the AVX2 clone of the replay is compiled
/// without fma, so its bits do not depend on the CPU either. The columns
/// of every target are cut into blocks of kRowOpsBlockCols, and each
/// block replays the whole sequence while it sits in cache; above
/// kRowOpsThreadedFloor the blocks fan out over the gemm kernel pool.
/// Every element sees its ops in sequence order whoever replays its
/// block, so the result is bit-identical to applying each op across
/// whole rows at once, at every gemm width.
void applyRowOps(std::span<const RowOp> ops,
                 std::span<const MatrixView> targets);

/// Euclidean norm of column j of A computed with overflow guarding.
double colNorm(const Matrix& a, std::size_t j);

/// Symmetrize in place: A <- (A + A^T)/2 (square only).
void symmetrize(Matrix& a);

/// Skew-symmetrize in place: A <- (A - A^T)/2 (square only).
void skewSymmetrize(Matrix& a);

}  // namespace shhpass::linalg
