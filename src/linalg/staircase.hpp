// Rank-revealing row/column compression — the primitive under the one-pass
// staircase deflation chain (GUPTRI-style) that runs the impulse-deflation,
// nondynamic-removal, and m1-extraction stages at every order.
//
// A Compression is a certificate about ONE matrix M: the full list of its
// singular values (so every rank decision still goes through the shared
// resolveRankTol / rankFromSingularValues policy and lands in a
// RankReport), plus orthonormal bases of the requested fundamental
// subspaces. Four kernels produce that certificate at very different
// costs, picked by structure:
//
//   * Diagonal        — M square with exactly-zero off-diagonal (the
//                       balanced benchmark E): sigma = |d_i| sorted, bases
//                       are signed unit columns. O(n^2) detect, O(n*r)
//                       assembly.
//   * QrSvd           — tall (or, transposed internally, wide) M:
//                       blocked non-pivoted QR, then a full SVD of the
//                       small R factor. sigma(R) == sigma(M) exactly
//                       (orthogonal invariance), so the certificate is as
//                       strong as a full SVD at a fraction of the cost;
//                       range/left-null bases come from applyQ.
//   * SkewTridiagonal — M square and exactly skew-symmetric (E1 after
//                       skewSymmetrize): Hessenberg reduction of a skew
//                       matrix is a skew tridiagonalization; the odd/even
//                       permutation turns the tridiagonal into
//                       [[0, C], [-C^T, 0]] with C lower bidiagonal of
//                       half size, whose Givens-QR + bidiagonal sweep
//                       (the SVD kernel's own rotation engine) delivers
//                       every sigma of M (each sigma(C) twice, plus a
//                       structural zero when the order is odd) and exactly
//                       orthonormal range/kernel bases. One BLAS-3
//                       Hessenberg + half-size O(n^2) work instead of a
//                       full-size SVD.
//   * Svd             — certified fallback: a full SVD(M). Always valid;
//                       counted in StaircaseReport::svdFallbacks so the
//                       diagnostics show when the structured paths did
//                       not engage.
//
// Every kernel feeds the SAME rank policy with the SAME (full-accuracy)
// singular values; the kernels differ only in how the bases are
// assembled. Bit-determinism: all building blocks (gemm, blocked QR,
// blocked Hessenberg, blocked SVD, the bidiagonal sweep) are
// bit-deterministic for every setGemmThreads() setting, so a Compression
// — and the whole staircase chain above it — is too.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace shhpass::linalg {

/// Which compression kernel ran (or, in options, is requested).
enum class CompressionKernel { Auto, Svd, Diagonal, QrSvd, SkewTridiagonal };

/// Per-stage health record of the staircase chain, threaded through the
/// stage results into AnalysisReport diagnostics (next to RankReport).
struct StaircaseReport {
  std::size_t compressions = 0;       ///< Compressions computed.
  std::size_t svdFallbacks = 0;       ///< ... that fell back to a full SVD.
  std::size_t diagonalFastPaths = 0;  ///< ... served by the diagonal kernel.
  std::size_t qrCompressions = 0;     ///< ... served by the QR+small-SVD kernel.
  std::size_t skewTridiagonalizations = 0;  ///< ... by the skew kernel.
  std::size_t reusedCompressions = 0; ///< Consumers served by a compression
                                      ///< computed earlier in the chain.
  std::size_t chainLength = 0;        ///< Staircase steps executed.
  std::size_t truncatedSteps = 0;     ///< Steps skipped because the
                                      ///< deflation subspace stabilized.

  /// Accumulate another report (plain sums).
  void merge(const StaircaseReport& other);
};

/// What compress() should assemble. Singular values and the rank decision
/// are always produced; bases are opt-in because some are much more
/// expensive than others (e.g. the left nullspace of a tall matrix costs
/// a full-Q application).
struct CompressionOptions {
  double rankTol = -1.0;  ///< Shared rank policy tolerance (< 0: default).
  CompressionKernel kernel = CompressionKernel::Auto;
  bool wantRange = false;          ///< Orthonormal basis of Im(M), m x r.
  bool wantCorange = false;        ///< Basis of Im(M^T), n x r.
  bool wantNullspace = false;      ///< Basis of Ker(M), n x (n - r).
  bool wantLeftNullspace = false;  ///< Basis of Ker(M^T), m x (m - r).
};

/// A certified rank-revealing compression of one matrix. Bases that were
/// not requested are left empty (0 columns with the correct row count).
struct Compression {
  std::size_t rows = 0, cols = 0;
  CompressionKernel kernelUsed = CompressionKernel::Svd;
  std::vector<double> sigma;  ///< All min(m, n) singular values, descending.
  double resolvedTol = 0.0;   ///< The cutoff the rank decision used.
  std::size_t rank = 0;       ///< Shared-policy rank (recorded in reports).
  Matrix range;               ///< m x rank.
  Matrix corange;             ///< n x rank.
  Matrix nullspace;           ///< n x (n - rank).
  Matrix leftNullspace;       ///< m x (m - rank).

  std::size_t nullity() const { return cols - rank; }

  /// Minimum-norm pseudoinverse application M^+ b = corange * S_r^{-1} *
  /// range^T b. Requires wantRange and wantCorange.
  Matrix applyPinv(const Matrix& b) const;

  /// Pseudoinverse of the TRANSPOSE: (M^T)^+ b = range * S_r^{-1} *
  /// corange^T b. Lets one compression of E serve both E^+ and (E^T)^+
  /// consumers. Requires wantRange and wantCorange.
  Matrix applyPinvTranspose(const Matrix& b) const;
};

/// Compute a compression of `m`. The rank decision is recorded into
/// `rankReport` (when non-null) through rankFromSingularValues, exactly
/// like a direct SVD rank() call would; kernel/ fallback counters go into
/// `stairReport` (when non-null). Kernel Auto picks, in order: Diagonal
/// (exact structural test), SkewTridiagonal (square, exactly skew, order
/// >= 16), QrSvd (aspect ratio >= 2), else the Svd fallback. Requesting a
/// specific kernel whose structural precondition fails throws
/// std::invalid_argument.
Compression compress(const Matrix& m, const CompressionOptions& opts,
                     RankReport* rankReport = nullptr,
                     StaircaseReport* stairReport = nullptr);

/// True iff `m` is square with every off-diagonal entry exactly zero
/// (the structural precondition of the Diagonal kernel).
bool isExactlyDiagonal(const Matrix& m);

/// (I - B B^T) m for an orthonormal-column basis B, with one
/// re-orthogonalization pass ("twice is enough", Kahan/Parlett): a single
/// classical pass leaves a residual of order eps * kappa along the basis
/// when a column of m is nearly contained in span(B); the second pass
/// reduces it to order eps. Shared by every deflation-chain projection.
Matrix projectOutTwice(const Matrix& basis, const Matrix& m);

}  // namespace shhpass::linalg
