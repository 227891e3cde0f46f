// Singular value decomposition A = U diag(s) V^T, the rank oracle for
// every deflation decision in the SHH passivity pipeline (kernel bases,
// range bases, subspace subtraction).
//
// Two kernels share the public entry point:
//
//   * svdUnblocked — the Golub-Kahan-Reinsch implementation (JAMA
//     lineage): per-reflector bidiagonalization and rank-1 factor
//     generation, then the shared implicit-shift QR sweep on the
//     bidiagonal core. Kept as the reference oracle and used below the
//     crossover, where it is faster (seeded downstream tests rely on
//     its exact bits).
//   * a blocked dgebrd/dlabrd-style path (svd.cpp): panels of kSvdPanel
//     columns/rows are bidiagonalized with lazily-applied updates (the
//     dlabrd X/Y recurrences), the trailing matrix is updated with two
//     large gemm calls per panel, and U/V are accumulated panel-by-panel
//     through the compact-WY kernels in householder.hpp — all O(n^3)
//     work outside the skinny panel products is BLAS-3.
//
// Both kernels diagonalize their bidiagonal core with the one sweep
// detail::bidiagonalQrSweepTransposed, on transposed (row-contiguous)
// factor layouts so the Givens updates stream through cache instead of
// striding.
//
// ## The rotation replay
//
// A q x q core's sweep applies O(q^2) rotations, sign flips and swaps to
// the rows of the factors; applied one at a time they stream the whole
// q x q factor matrices from L3 or memory for every QR step. At and above
// kSvdReplayFloor (q * (q + length of a U row) elements) the sweep
// records them in an op log of fixed maximum length (so it cannot grow
// as q^2) and replays the log by column blocks of the factors that stay
// in cache, through linalg::applyRowOps (blas.hpp) — the delayed-rotation
// scheme of Van Zee, van de Geijn and Quintana-Orti, ACM TOMS 40(3),
// 2014. Below the floor every operation is applied as it is decided
// (detail::bidiagonalQrSweepUnblocked, which is also the replay's test
// oracle). Each element of the factors sees the same operations in the
// same order with the same unfused arithmetic either way, so the replay
// is bit-identical to applying each rotation immediately.
//
// SVD() dispatches on kSvdCrossover (min(m, n)); below it the result is
// bit-identical to svdUnblocked. Above it the two kernels produce equally
// valid decompositions that agree only to backward-stable roundoff
// (different summation order) — equivalence, orthogonality, and
// reconstruction bounds are enforced by tests/test_svd_random.cpp.
//
// Threading: the blocked path inherits gemm's contract (blas.hpp) —
// enable setGemmThreads() to parallelize the trailing updates and the
// factor accumulation — and the rotation replay fans its column blocks
// out over the same kernel pool through applyRowOps (each block replays
// the whole log on its own columns); results are bit-identical for every
// thread count.
//
// ## The shared rank policy
//
// Every consumer that turns singular values into a rank decision
// (impulse deflation, nondynamic removal, proper-part normalization,
// the impulsive-structure record, the LMI reduction) goes through ONE
// policy: rankFromSingularValues counts sigma > tol, where a negative tol
// resolves to the LAPACK-style default max(m, n) * eps * sigma_max.
// Decisions can be recorded into a RankReport (decision count plus the
// worst kept/dropped margins relative to the cutoff). The caller passes
// its record down and every decision writes into it; the analyzer hands
// each stage AnalysisReport::rankPolicy.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Panel width of the blocked bidiagonalization (columns+rows reduced per
/// dlabrd panel; also the K extent of the trailing-update gemms).
inline constexpr std::size_t kSvdPanel = 32;
/// Smallest min(m, n) for which SVD() takes the blocked path. Below it
/// the unblocked kernel is faster AND bit-identical to the pre-blocking
/// implementation (consistent with kHessenbergCrossover).
inline constexpr std::size_t kSvdCrossover = 128;

/// Smallest q * (q + length of a U row) for which the bidiagonal sweep
/// replays its rotations by column blocks instead of applying each one at
/// once (both give the same bits; below it the factors stay in cache and
/// the log only costs time).
inline constexpr std::size_t kSvdReplayFloor = 2 * 160 * 160;

/// Kernel selector for SVD: Auto dispatches on kSvdCrossover.
enum class SvdKernel { Auto, Unblocked, Blocked };

/// Health record of the rank decisions taken under the shared policy.
/// Margins are relative to the resolved cutoff: a kept margin near 1
/// means the smallest retained singular value barely cleared the
/// tolerance (the decision is numerically sharp); a dropped margin near
/// 1 means a dropped one barely missed it. Mirrors ReorderReport.
struct RankReport {
  std::size_t decisions = 0;     ///< Rank decisions recorded.
  /// min over decisions of sigma_r / tol (smallest kept vs cutoff);
  /// infinity until a decision keeps at least one singular value.
  double minKeptMargin;
  /// max over decisions of sigma_{r+1} / tol (largest dropped vs
  /// cutoff); 0 until a decision drops at least one singular value.
  double maxDroppedMargin = 0.0;

  RankReport();

  bool operator==(const RankReport&) const = default;
};

/// Resolve a rank tolerance: returns `tol` unchanged when >= 0, else the
/// default policy max(m, n) * eps * max(sigma_max, 1e-300). `s` must be
/// sorted descending (sigma_max = s.front()).
double resolveRankTol(const std::vector<double>& s, std::size_t m,
                      std::size_t n, double tol);

/// THE shared rank policy: number of singular values strictly above the
/// resolved tolerance. `s` must be sorted descending (as produced by
/// SVD). When `report` is non-null the decision is recorded into it.
std::size_t rankFromSingularValues(const std::vector<double>& s,
                                   std::size_t m, std::size_t n,
                                   double tol = -1.0,
                                   RankReport* report = nullptr);

/// SVD of an arbitrary m x n real matrix.
///
/// Singular values are sorted descending. `u()` is m x min(m,n) (thin) and
/// `v()` is n x n when m >= n; for m < n the decomposition is computed on the
/// transpose and the factors swapped, so `u()` is m x m and `v()` is n x
/// min(m,n). Basis helpers (`range`, `nullspace`, `leftNullspace`) paper over
/// the difference and always return orthonormal bases of the right dimension.
class SVD {
 public:
  /// Decompose `a`. The default Auto kernel dispatches between the
  /// blocked and unblocked implementation on kSvdCrossover; see the
  /// header comment for the exact contract.
  explicit SVD(const Matrix& a, SvdKernel kernel = SvdKernel::Auto);

  const std::vector<double>& singularValues() const { return s_; }
  const Matrix& u() const { return u_; }
  const Matrix& v() const { return v_; }

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

  /// Default rank tolerance: max(m,n) * eps * sigma_max.
  double defaultTol() const;

  /// Numerical rank under the shared policy (rankFromSingularValues):
  /// number of singular values > tol (tol < 0 uses the default). When
  /// `report` is non-null the decision is recorded into it.
  std::size_t rank(double tol = -1.0, RankReport* report = nullptr) const;

  /// Orthonormal basis of the column space, m x rank.
  Matrix range(double tol = -1.0) const;

  /// Orthonormal basis of the (right) nullspace, n x (n - rank).
  Matrix nullspace(double tol = -1.0) const;

  /// Orthonormal basis of the left nullspace {y : y^T A = 0}, m x (m - rank).
  Matrix leftNullspace(double tol = -1.0) const;

  /// Moore-Penrose pseudoinverse with rank cutoff tol (default tolerance).
  Matrix pseudoInverse(double tol = -1.0) const;

  /// Condition number sigma_max / sigma_min (inf if rank-deficient).
  double cond() const;

 private:
  std::size_t m_ = 0, n_ = 0;
  std::vector<double> s_;
  Matrix u_, v_;
  bool transposed_ = false;
};

/// The historical unblocked Golub-Kahan-Reinsch kernel. Exposed for the
/// blocked-vs-reference equivalence tests and kernel benchmarks;
/// production code should construct SVD(), which dispatches per shape.
inline SVD svdUnblocked(const Matrix& a) {
  return SVD(a, SvdKernel::Unblocked);
}

/// The blocked kernel without the size dispatch (identical public
/// contract). Exposed for benchmarks and equivalence tests; production
/// code should construct SVD(). Requires min(m, n) >= 3 to block; below
/// that it falls back to the unblocked kernel.
inline SVD svdBlocked(const Matrix& a) { return SVD(a, SvdKernel::Blocked); }

/// Singular values only (sorted descending), without forming U or V.
/// Above the crossover this skips the compact-WY factor accumulation and
/// runs the rotation sweep without factor updates — roughly 4-5x cheaper
/// than a full SVD() — while producing BIT-IDENTICAL values (the shifts
/// and Givens coefficients never read the factors); below it the full
/// kernel runs and the factors are thrown away. Use for condition-number /
/// rank queries on large matrices (e.g. the proper-part normalizer
/// check), where the bases are never consumed.
std::vector<double> singularValues(const Matrix& a);

namespace detail {

/// Implicit-shift QR diagonalization of an upper-bidiagonal core:
/// `sv` holds the diagonal (length n), `e` the superdiagonal (length n,
/// with e[n-1] == 0 as the sentinel the sweep expects). Factors are
/// accumulated on TRANSPOSED layouts — row j of `ut` is column j of U,
/// row j of `vt` is column j of V — so the Givens stream touches
/// contiguous rows. On return `sv` is sorted descending with
/// nonnegative entries. This is the rotation engine of both SVD kernels,
/// exposed for linalg/staircase.cpp, whose skew-tridiagonal compression
/// reduces E1 to a half-size bidiagonal core and reuses the exact same
/// sweep (one implementation, one set of deflation criteria). At and
/// above kSvdReplayFloor the row operations are replayed by column blocks
/// (see the header comment); the result is bitwise that of
/// bidiagonalQrSweepUnblocked. With withVectors = false the factors are
/// not touched and the values are the same bits.
void bidiagonalQrSweepTransposed(std::vector<double>& sv,
                                 std::vector<double>& e, Matrix& ut,
                                 Matrix& vt, bool withVectors = true);

/// The same sweep applying every row operation as soon as it is decided,
/// at every size: the body below kSvdReplayFloor and the oracle the
/// replay is tested against. Production code should call
/// bidiagonalQrSweepTransposed().
void bidiagonalQrSweepUnblocked(std::vector<double>& sv,
                                std::vector<double>& e, Matrix& ut,
                                Matrix& vt);

}  // namespace detail

}  // namespace shhpass::linalg
