// Orthogonal reduction to upper Hessenberg form: A = Q H Q^T.
//
// Two implementations share the public entry point:
//
//   * hessenbergUnblocked — the EISPACK `orthes`/`ortran` lineage: one
//     Householder similarity per column, applied as rank-1 updates. Kept
//     as the reference implementation (and used for orders below the
//     crossover, where its lower constant wins).
//   * a blocked LAPACK dgehrd/dlahr2-style reduction (hessenberg.cpp):
//     panels of kHessenbergBlock columns are reduced with lazily-applied
//     updates, accumulating the compact-WY factors (V, T) and the product
//     Y = A V T; the trailing matrix and the Q accumulation are then
//     updated with a few large gemm calls (BLAS-3, ~80% of the flops).
//     Like dgehrd it works in place: the panel reads the panel-start
//     matrix A0 straight from the not-yet-updated columns of H (no slab
//     copy), V and Y are stored transposed so every panel loop runs at
//     unit stride, and the trailing and Q updates are view gemms
//     (blas.hpp) on H and Q themselves, through one small reusable
//     workspace — no block()/setBlock() round trips.
//
// hessenberg() dispatches on kHessenbergCrossover. Both paths use the
// same reflector sign convention (leading entry's sign is flipped), so
// their H factors agree entrywise to O(n * eps * ||A||) — they are NOT
// bitwise identical; any valid Hessenberg form is equally acceptable to
// the Schur iteration downstream. Equivalence at 1e-11 (scaled) plus
// reconstruction/orthogonality bounds are enforced by
// tests/test_blas_blocked.cpp.
//
// Threading: enable setGemmThreads() to parallelize the blocked path.
// The trailing updates and the Q accumulation are gemm calls, and the
// panel's dominant gemv (A0 v, one dotQuad per row) runs through dotRows,
// which fans its rows out over the same kernel pool; the rest of the
// panel recurrences are sequential. Results are bit-identical for every
// thread count (see blas.hpp), and bitwise those of the earlier
// block-copying reduction (tests/hessenberg_oracle.hpp).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Panel width of the blocked reduction (columns reduced per compact-WY
/// block; also the K extent of the trailing-update gemms).
inline constexpr std::size_t kHessenbergBlock = 32;
/// Smallest order for which hessenberg() takes the blocked path. Below
/// it the rank-1 EISPACK kernel is faster AND bit-identical to the
/// pre-blocking implementation (seeded downstream tests rely on that).
inline constexpr std::size_t kHessenbergCrossover = 128;

/// Result of a Hessenberg reduction.
struct HessenbergResult {
  Matrix h;  ///< Upper Hessenberg (zero below the first subdiagonal).
  Matrix q;  ///< Orthogonal accumulation, A = q * h * q^T (0x0 when the
             ///< reduction was requested with wantQ = false).
};

/// Reduce a square matrix to upper Hessenberg form with Householder
/// reflectors. Dispatches between the blocked (large) and the unblocked
/// (small) implementation; see the header comment. With wantQ = false
/// the orthogonal factor is never accumulated (result.q is 0x0) — the H
/// factor is bit-identical either way; eigenvalue-only callers skip the
/// accumulation cost entirely.
HessenbergResult hessenberg(const Matrix& a, bool wantQ = true);

/// The unblocked EISPACK `orthes`/`ortran` reference implementation.
/// Exposed for the blocked-vs-reference equivalence tests and kernel
/// benchmarks; production code should call hessenberg().
HessenbergResult hessenbergUnblocked(const Matrix& a, bool wantQ = true);

}  // namespace shhpass::linalg
