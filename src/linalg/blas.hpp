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
// ## Blocking parameters
//
// The blocked kernel follows the BLIS/GotoBLAS loop nest. Tile sizes are
// compile-time constants, chosen for ~32 KiB L1 / ~256 KiB-1 MiB L2
// caches on commodity x86-64 and AArch64 cores:
//
//   * kGemmMr x kGemmNr (4 x 8)  — the register micro-tile: a 4x8 block
//     of C is accumulated in registers over the full K extent of a panel;
//   * kGemmKc (256)              — K extent of one packed panel pair: a
//     kGemmKc x kGemmNr sliver of B stays L1-resident across a macro row;
//   * kGemmMc (128)              — M extent of one packed A block
//     (kGemmMc x kGemmKc doubles = 256 KiB, sized for L2);
//   * kGemmNc (512)              — N extent of one packed B panel
//     (kGemmKc x kGemmNc doubles = 1 MiB, sized for L3).
//
// Operands are packed (with the transpose resolved and alpha folded into
// the A pack) into contiguous micro-panel layouts, so the micro-kernel
// reads both inputs with unit stride regardless of op(A)/op(B).
//
// Products too small to amortize the packing cost — fewer than
// kGemmBlockedFlopFloor multiply-adds, or with a thin dimension below one
// micro-tile — are routed to gemmReference unchanged; the dispatch is a
// pure performance decision and is observationally identical apart from
// floating-point summation order.
//
// ## Threading contract
//
// setGemmThreads(t) with t > 1 parallelizes the blocked kernel over
// disjoint column panels of C on a lazily created, process-wide
// api::ThreadPool. The contract is:
//
//   * determinism — each C element is accumulated in the same order
//     regardless of the thread count (threads partition columns; the
//     K-accumulation order per element never changes), so results are
//     bit-identical between serial and threaded runs, for every thread
//     count, across repeated runs;
//   * the pool is used only inside gemm() calls that dispatch to the
//     blocked kernel AND exceed kGemmThreadedFlopFloor; small products
//     never touch the pool;
//   * gemm() may be called concurrently from many threads (e.g. from
//     runBatch workers); the kernel pool is shared and its barrier is
//     global, so concurrent large gemms serialize their waits but never
//     deadlock (kernel-pool workers themselves never call gemm);
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
// in a different (panel-major) order than the reference kernel, so the
// two agree only to that bound — about 1e-13 relative for the k <= a few
// thousand used here — not bitwise. All other routines in this header are
// exact per-element transcriptions (no reassociation).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Register micro-tile rows of the blocked gemm kernel.
inline constexpr std::size_t kGemmMr = 4;
/// Register micro-tile columns of the blocked gemm kernel.
inline constexpr std::size_t kGemmNr = 8;
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

/// C = alpha * op(A) * op(B) + beta * C, where op is identity or transpose.
/// C must already have the correct shape and must not alias a or b (the
/// inputs may alias each other). Dispatches between the blocked and the
/// reference kernel; see the header comment for the exact contract.
void gemm(double alpha, const Matrix& a, bool transA, const Matrix& b,
          bool transB, double beta, Matrix& c);

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

/// Enable (t > 1) or disable (t <= 1) column-panel threading of the
/// blocked kernel; t == 0 means std::thread::hardware_concurrency().
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

/// y[i] += alpha * x[i] over contiguous arrays — exact per-element update
/// (each y[i] receives exactly one fused or rounded multiply-add; no
/// reassociation), with the same per-machine AVX2 dispatch as dotQuad.
void axpy(double alpha, const double* x, std::size_t len, double* y);

/// Plane rotation on contiguous arrays:
/// (x[i], y[i]) <- (cs * x[i] + sn * y[i], -sn * x[i] + cs * y[i]).
/// Exact per-element transcription of the two-line scalar update, with
/// the same per-machine AVX2 dispatch as dotQuad.
void planeRot(double cs, double sn, double* x, double* y, std::size_t len);

/// Dot product of columns ja of A and jb of B (rows must match).
double colDot(const Matrix& a, std::size_t ja, const Matrix& b,
              std::size_t jb);

/// Euclidean norm of column j of A computed with overflow guarding.
double colNorm(const Matrix& a, std::size_t j);

/// Symmetrize in place: A <- (A + A^T)/2 (square only).
void symmetrize(Matrix& a);

/// Skew-symmetrize in place: A <- (A - A^T)/2 (square only).
void skewSymmetrize(Matrix& a);

}  // namespace shhpass::linalg
