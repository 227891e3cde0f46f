#include "linalg/staircase.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/qr.hpp"
#include "obs/trace.hpp"

namespace shhpass::linalg {

namespace {

// Blocked Householder tridiagonalization of an EXACTLY skew matrix:
// M = Q T Q^T with T skew tridiagonal (only the subdiagonal is returned).
// For skew A the similarity H A H with H = I - tau u u^T collapses to the
// rank-2 skew update A <- A + u p^T - p u^T, p = tau A u (the symmetric
// case's correction term vanishes because u^T A u == 0 exactly), so a
// dsytrd-style panel factorization applies: within a panel the updates are
// deferred (columns read A + U P^T - P U^T on the fly), then the trailing
// block absorbs the whole panel as two gemm calls. This does ~2/3 n^3
// gemv-bound flops plus ~4/3 n^3 gemm flops, versus 10/3 n^3 for the
// general Hessenberg reduction the kernel previously rode on.
// Deterministic for any gemm thread count (inherits the blas contract;
// the scalar panel corrections are fixed-order loops).
struct SkewTridiagResult {
  Matrix q;                 // orthogonal; m = q * T * q^T
  std::vector<double> sub;  // subdiagonal of T: sub[i] = T(i+1, i)
};

SkewTridiagResult skewTridiagonalize(const Matrix& m) {
  const std::size_t n = m.rows();
  SkewTridiagResult out;
  out.sub.assign(n > 0 ? n - 1 : 0, 0.0);
  if (n <= 1) {
    out.q = Matrix::identity(n);
    return out;
  }
  if (n == 2) {
    out.q = Matrix::identity(n);
    out.sub[0] = m(1, 0);
    return out;
  }

  constexpr std::size_t kPanel = 48;
  Matrix vAll(n, n - 1);  // packed reflectors: column c has its leading 1
                          // at row c + 1 and exact zeros above
  std::vector<double> tauAll(n - 1, 0.0);
  std::vector<std::size_t> panelStarts;

  // `at` is the trailing block in local coordinates: local index 0 is
  // global index j0. It carries all updates from completed panels.
  Matrix at = m;
  std::size_t j0 = 0;
  while (j0 < n - 1) {
    panelStarts.push_back(j0);
    const std::size_t nt = n - j0;
    const std::size_t nb = std::min(kPanel, n - 1 - j0);
    // Panel vectors stored TRANSPOSED (row k = the k-th u / p vector in
    // local coordinates) so every dot/axpy below streams a contiguous
    // row; a gemm-with-one-column here would repack the whole trailing
    // block per column. All loops are fixed-order scalar code, so the
    // result is independent of the gemm thread count.
    Matrix uT(nb, nt), pT(nb, nt);
    std::vector<double> colBuf(nt), vbuf(nt), s1(nb), s2(nb);
    for (std::size_t jj = 0; jj < nb; ++jj) {
      const std::size_t len = nt - 1 - jj;
      // Effective column jj of (at + U P^T - P U^T), rows jj+1 .. nt-1.
      for (std::size_t i = jj + 1; i < nt; ++i) colBuf[i] = at(i, jj);
      for (std::size_t k = 0; k < jj; ++k) {
        const double pr = pT(k, jj), ur = uT(k, jj);
        if (pr == 0.0 && ur == 0.0) continue;
        const double* uk = uT.data() + k * nt;
        const double* pk = pT.data() + k * nt;
        for (std::size_t i = jj + 1; i < nt; ++i)
          colBuf[i] += uk[i] * pr - pk[i] * ur;
      }
      double beta = 0.0;
      const double tau =
          makeReflector(&colBuf[jj + 1], len, vbuf.data(), beta);
      out.sub[j0 + jj] = beta;
      tauAll[j0 + jj] = tau;
      double* uj = uT.data() + jj * nt;
      for (std::size_t i = 0; i < len; ++i) {
        uj[jj + 1 + i] = vbuf[i];
        vAll(j0 + jj + 1 + i, j0 + jj) = vbuf[i];
      }
      if (tau == 0.0) continue;
      // p = tau * (at u + U (P^T u) - P (U^T u)), restricted to rows > jj.
      for (std::size_t k = 0; k < jj; ++k) {
        const double* uk = uT.data() + k * nt;
        const double* pk = pT.data() + k * nt;
        double a1 = 0.0, a2 = 0.0;
        for (std::size_t i = jj + 1; i < nt; ++i) {
          a1 += pk[i] * uj[i];
          a2 += uk[i] * uj[i];
        }
        s1[k] = a1;
        s2[k] = a2;
      }
      // The dominant gemv of the panel (at u): dotRows runs one
      // fixed-order dotQuad per row, rows spread over the kernel pool
      // (bit-identical at every gemm width).
      double* pj = pT.data() + jj * nt;
      dotRows(at.data() + (jj + 1) * nt + jj + 1, nt, len, uj + jj + 1, len,
              pj + jj + 1);
      for (std::size_t k = 0; k < jj; ++k) {
        const double a1 = s1[k], a2 = s2[k];
        if (a1 == 0.0 && a2 == 0.0) continue;
        const double* uk = uT.data() + k * nt;
        const double* pk = pT.data() + k * nt;
        for (std::size_t i = jj + 1; i < nt; ++i)
          pj[i] += uk[i] * a1 - pk[i] * a2;
      }
      for (std::size_t i = jj + 1; i < nt; ++i) pj[i] *= tau;
    }
    j0 += nb;
    const std::size_t rem = nt - nb;
    if (j0 >= n - 1 || rem == 0) break;
    // Absorb the panel into the next trailing block (two gemm calls).
    Matrix at22 = at.block(nb, nb, rem, rem);
    Matrix u22(rem, nb), p22(rem, nb);
    for (std::size_t k = 0; k < nb; ++k)
      for (std::size_t i = 0; i < rem; ++i) {
        u22(i, k) = uT(k, nb + i);
        p22(i, k) = pT(k, nb + i);
      }
    gemm(1.0, u22, false, p22, true, 1.0, at22);
    gemm(-1.0, p22, false, u22, true, 1.0, at22);
    at = std::move(at22);
  }

  // Q = H_0 ... H_{n-2}, accumulated backward panel-by-panel on the
  // growing trailing block (panel with first column j0 touches only rows
  // and columns >= j0 + 1; everything outside stays identity).
  Matrix qt;
  std::size_t qtBase = n;  // qt covers global rows/cols [qtBase, n)
  for (std::size_t p = panelStarts.size(); p-- > 0;) {
    const std::size_t pj0 = panelStarts[p];
    const std::size_t nb = std::min(kPanel, n - 1 - pj0);
    const std::size_t base = pj0 + 1, sz = n - base;
    Matrix grown = Matrix::identity(sz);
    if (qtBase < n) grown.setBlock(qtBase - base, qtBase - base, qt);
    qt = std::move(grown);
    qtBase = base;
    const Matrix v2 = vAll.block(base, pj0, sz, nb);
    const std::vector<double> tpan(tauAll.begin() + pj0,
                                   tauAll.begin() + pj0 + nb);
    applyBlockReflectorLeft(v2, buildCompactWyT(v2, tpan), false, qt);
  }
  out.q = Matrix::identity(n);
  if (qtBase < n) out.q.setBlock(qtBase, qtBase, qt);
  return out;
}

// Record the shared-policy rank decision for the assembled sigma list.
void decideRank(Compression& c, double rankTol, RankReport* rr) {
  c.resolvedTol = resolveRankTol(c.sigma, c.rows, c.cols, rankTol);
  c.rank = rankFromSingularValues(c.sigma, c.rows, c.cols, rankTol, rr);
}

// Trivial compression of a matrix with an empty dimension.
Compression compressEmpty(const Matrix& m, const CompressionOptions& o,
                          RankReport* rr) {
  Compression c;
  c.rows = m.rows();
  c.cols = m.cols();
  c.kernelUsed = CompressionKernel::Svd;
  decideRank(c, o.rankTol, rr);
  if (o.wantRange) c.range = Matrix(c.rows, 0);
  if (o.wantCorange) c.corange = Matrix(c.cols, 0);
  if (o.wantNullspace) c.nullspace = Matrix::identity(c.cols);
  if (o.wantLeftNullspace) c.leftNullspace = Matrix::identity(c.rows);
  return c;
}

Compression compressDiagonal(const Matrix& m, const CompressionOptions& o,
                             RankReport* rr) {
  const std::size_t n = m.rows();
  Compression c;
  c.rows = c.cols = n;
  c.kernelUsed = CompressionKernel::Diagonal;
  // Stable sort by descending |d| (ties keep index order: deterministic).
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) {
                     return std::abs(m(a, a)) > std::abs(m(b, b));
                   });
  c.sigma.resize(n);
  for (std::size_t j = 0; j < n; ++j) c.sigma[j] = std::abs(m(idx[j], idx[j]));
  decideRank(c, o.rankTol, rr);
  const std::size_t r = c.rank;
  // M = U S V^T with U column j = sign(d) * e_idx, V column j = e_idx:
  // the bases are signed unit columns and the U/V pairing is exact.
  if (o.wantRange) {
    c.range = Matrix(n, r);
    for (std::size_t j = 0; j < r; ++j)
      c.range(idx[j], j) = m(idx[j], idx[j]) < 0.0 ? -1.0 : 1.0;
  }
  if (o.wantCorange) {
    c.corange = Matrix(n, r);
    for (std::size_t j = 0; j < r; ++j) c.corange(idx[j], j) = 1.0;
  }
  if (o.wantNullspace) {
    c.nullspace = Matrix(n, n - r);
    for (std::size_t j = r; j < n; ++j) c.nullspace(idx[j], j - r) = 1.0;
  }
  if (o.wantLeftNullspace) {
    c.leftNullspace = Matrix(n, n - r);
    for (std::size_t j = r; j < n; ++j) c.leftNullspace(idx[j], j - r) = 1.0;
  }
  return c;
}

// Tall case of the QR+small-SVD kernel (rows >= cols). When at most the
// left nullspace is wanted, the small SVD's vectors are formed only below
// full column rank: at full rank the left nullspace is Q [0; I], and
// singularValues(R) gives the same sigma bits at a fraction of the cost.
Compression compressQrSvdTall(const Matrix& m, const CompressionOptions& o,
                              RankReport* rr) {
  const std::size_t rows = m.rows(), n = m.cols();
  QR qr(m);  // blocked, non-pivoted
  const Matrix r = qr.r();  // n x n: sigma(R) == sigma(M) exactly
  std::optional<linalg::SVD> rsvd;
  if (o.wantRange || o.wantCorange || o.wantNullspace || n < kSvdCrossover)
    rsvd.emplace(r);
  Compression c;
  c.rows = rows;
  c.cols = n;
  c.kernelUsed = CompressionKernel::QrSvd;
  c.sigma = rsvd ? rsvd->singularValues() : singularValues(r);
  decideRank(c, o.rankTol, rr);
  const std::size_t k = c.rank;
  if (o.wantLeftNullspace && k < n && !rsvd) rsvd.emplace(r);
  if (o.wantCorange) c.corange = rsvd->v().block(0, 0, n, k);
  if (o.wantNullspace) c.nullspace = rsvd->v().block(0, k, n, n - k);
  if (o.wantRange) {
    Matrix pu(rows, k);
    pu.setBlock(0, 0, rsvd->u().block(0, 0, n, k));
    c.range = qr.applyQ(pu);
  }
  if (o.wantLeftNullspace) {
    Matrix pl(rows, rows - k);
    if (k < n) pl.setBlock(0, 0, rsvd->u().block(0, k, n, n - k));
    for (std::size_t i = n; i < rows; ++i) pl(i, (n - k) + (i - n)) = 1.0;
    c.leftNullspace = qr.applyQ(pl);
  }
  return c;
}

Compression compressQrSvd(const Matrix& m, const CompressionOptions& o,
                          RankReport* rr) {
  if (m.rows() >= m.cols()) return compressQrSvdTall(m, o, rr);
  // Wide: compress the transpose with the subspace requests swapped.
  CompressionOptions ot = o;
  ot.wantRange = o.wantCorange;
  ot.wantCorange = o.wantRange;
  ot.wantNullspace = o.wantLeftNullspace;
  ot.wantLeftNullspace = o.wantNullspace;
  Compression ct = compressQrSvdTall(m.transposed(), ot, rr);
  Compression c;
  c.rows = m.rows();
  c.cols = m.cols();
  c.kernelUsed = CompressionKernel::QrSvd;
  c.sigma = std::move(ct.sigma);
  c.resolvedTol = ct.resolvedTol;
  c.rank = ct.rank;
  c.range = std::move(ct.corange);
  c.corange = std::move(ct.range);
  c.nullspace = std::move(ct.leftNullspace);
  c.leftNullspace = std::move(ct.nullspace);
  return c;
}

// Square, exactly skew-symmetric input. skewTridiagonalize (the
// dsytrd-style reduction above) returns Q and the subdiagonal c_i of
// M = Q T Q^T; T is taken as exactly skew tridiagonal, a backward-stable
// O(eps ||M||) reading because every update of the reduction is a rank-2
// skew update of an exactly skew M. Permuting to even-then-odd index
// blocks turns T into [[0, C], [-C^T, 0]] with C lower bidiagonal of
// size p x q, p = ceil(n/2), q = floor(n/2):
//   C(a, a) = -c_{2a},  C(a+1, a) = c_{2a+1}.
// A Givens-QR chain (rotating adjacent ROWS) makes C upper bidiagonal,
// and the SVD kernel's own bidiagonal sweep finishes: every sigma of M is
// a sigma of C twice (plus one structural zero when n is odd), and the
// singular vectors of C assemble — through the permutation and Q —
// exactly orthonormal range/kernel bases of M.
Compression compressSkewTridiagonal(const Matrix& m,
                                    const CompressionOptions& o,
                                    RankReport* rr) {
  const std::size_t n = m.rows();
  Compression c;
  c.rows = c.cols = n;
  c.kernelUsed = CompressionKernel::SkewTridiagonal;

  SkewTridiagResult st = skewTridiagonalize(m);
  const std::size_t p = (n + 1) / 2, q = n / 2;
  const std::vector<double>& sub = st.sub;

  // Lower-bidiagonal C: diag d, subdiagonal b (entry C(a+1, a)).
  std::vector<double> d(q), b(q, 0.0);
  for (std::size_t a = 0; a < q; ++a) d[a] = -sub[2 * a];
  for (std::size_t a = 0; a + 1 < p && 2 * a + 2 < n; ++a)
    b[a] = sub[2 * a + 1];

  // Givens QR of C: rotate rows (k, k+1) to zero C(k+1, k); the fill-in
  // lands on the superdiagonal, leaving R upper bidiagonal (q x q).
  struct Rot {
    double co = 1.0, si = 0.0;
  };
  std::vector<Rot> rots(q);
  std::vector<double> e(q, 0.0);
  for (std::size_t k = 0; k < q; ++k) {
    if (k + 1 >= p || b[k] == 0.0) continue;
    const double h = std::hypot(d[k], b[k]);
    const double co = d[k] / h, si = b[k] / h;
    rots[k] = {co, si};
    d[k] = h;
    if (k + 1 < q) {
      e[k] = si * d[k + 1];
      d[k + 1] = co * d[k + 1];
    }
  }

  // Bidiagonal SVD of R via the shared sweep: R = U S V^T.
  std::vector<double> sv = d;
  Matrix ut = Matrix::identity(q), vt = Matrix::identity(q);
  if (q > 0) detail::bidiagonalQrSweepTransposed(sv, e, ut, vt, true);

  // sigma(M): each sigma(C) twice, plus p - q structural zeros.
  c.sigma.resize(n);
  for (std::size_t i = 0; i < q; ++i) {
    c.sigma[2 * i] = sv[i];
    c.sigma[2 * i + 1] = sv[i];
  }
  for (std::size_t i = 2 * q; i < n; ++i) c.sigma[i] = 0.0;
  decideRank(c, o.rankTol, rr);
  const std::size_t r = c.rank;
  const std::size_t rh = r / 2;  // duplicates decide identically => r even

  const bool wantAnyKeep = o.wantRange || o.wantCorange;
  const bool wantAnyNull = o.wantNullspace || o.wantLeftNullspace;
  if (!wantAnyKeep && !wantAnyNull) return c;

  // U_C = G^T * blockdiag(U, I_{p-q}) (p x p), V_C = V (q x q).
  Matrix uc(p, p);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < q; ++j) uc(i, j) = ut(j, i);
  for (std::size_t j = q; j < p; ++j) uc(j, j) = 1.0;
  for (std::size_t kk = q; kk-- > 0;) {
    if (rots[kk].si == 0.0 && rots[kk].co == 1.0) continue;
    const double co = rots[kk].co, si = rots[kk].si;
    for (std::size_t j = 0; j < p; ++j) {
      const double x = uc(kk, j), y = uc(kk + 1, j);
      uc(kk, j) = co * x - si * y;
      uc(kk + 1, j) = si * x + co * y;
    }
  }

  // In the permuted coordinates the left/right singular vectors of
  // T_perm pair as: sigma_i -> left [u_i; 0] with right [0; v_i], and
  // left [0; v_i] with right [-u_i; 0]. Even block entries sit at the
  // original indices 2a, odd block entries at 2b + 1; multiplying by the
  // tridiagonalization's Q maps everything back to M's coordinates.
  if (wantAnyKeep) {
    Matrix pre(n, r);
    for (std::size_t i = 0; i < rh; ++i) {
      for (std::size_t a = 0; a < p; ++a) pre(2 * a, 2 * i) = uc(a, i);
      for (std::size_t bb = 0; bb < q; ++bb)
        pre(2 * bb + 1, 2 * i + 1) = vt(i, bb);
    }
    Matrix basis = st.q * pre;
    if (o.wantCorange) {
      Matrix cpre(n, r);
      for (std::size_t i = 0; i < rh; ++i) {
        for (std::size_t bb = 0; bb < q; ++bb)
          cpre(2 * bb + 1, 2 * i) = vt(i, bb);
        for (std::size_t a = 0; a < p; ++a)
          cpre(2 * a, 2 * i + 1) = -uc(a, i);
      }
      c.corange = st.q * cpre;
    }
    if (o.wantRange) c.range = std::move(basis);
  }
  if (wantAnyNull) {
    const std::size_t z = n - r;
    Matrix pre(n, z);
    std::size_t col = 0;
    for (std::size_t i = rh; i < q; ++i) {
      for (std::size_t a = 0; a < p; ++a) pre(2 * a, col) = uc(a, i);
      ++col;
      for (std::size_t bb = 0; bb < q; ++bb) pre(2 * bb + 1, col) = vt(i, bb);
      ++col;
    }
    for (std::size_t j = q; j < p; ++j) {
      for (std::size_t a = 0; a < p; ++a) pre(2 * a, col) = uc(a, j);
      ++col;
    }
    Matrix basis = st.q * pre;
    if (o.wantLeftNullspace) c.leftNullspace = basis;
    if (o.wantNullspace) c.nullspace = std::move(basis);
  }
  return c;
}

Compression compressSvd(const Matrix& m, const CompressionOptions& o,
                        RankReport* rr) {
  Compression c;
  c.rows = m.rows();
  c.cols = m.cols();
  c.kernelUsed = CompressionKernel::Svd;
  if (!o.wantRange && !o.wantCorange && !o.wantNullspace &&
      !o.wantLeftNullspace) {
    // Rank only: skip the U/V accumulation (bit-identical sigma).
    c.sigma = linalg::singularValues(m);
    decideRank(c, o.rankTol, rr);
    return c;
  }
  linalg::SVD svd(m);
  c.sigma = svd.singularValues();
  decideRank(c, o.rankTol, rr);
  if (o.wantRange) c.range = svd.range(o.rankTol);
  if (o.wantCorange) c.corange = svd.v().block(0, 0, m.cols(), c.rank);
  if (o.wantNullspace) c.nullspace = svd.nullspace(o.rankTol);
  if (o.wantLeftNullspace) c.leftNullspace = svd.leftNullspace(o.rankTol);
  return c;
}

}  // namespace

Matrix projectOutTwice(const Matrix& basis, const Matrix& m) {
  if (basis.cols() == 0) return m;
  Matrix p = m - basis * atb(basis, m);
  p -= basis * atb(basis, p);
  return p;
}

bool isExactlyDiagonal(const Matrix& m) {
  if (!m.isSquare()) return false;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (i != j && m(i, j) != 0.0) return false;
  return true;
}

Matrix Compression::applyPinv(const Matrix& b) const {
  if (range.cols() != rank || corange.cols() != rank)
    throw std::logic_error(
        "Compression::applyPinv: range and corange bases required");
  Matrix t = atb(range, b);
  for (std::size_t i = 0; i < rank; ++i) {
    const double inv = 1.0 / sigma[i];
    for (std::size_t j = 0; j < t.cols(); ++j) t(i, j) *= inv;
  }
  return corange * t;
}

Matrix Compression::applyPinvTranspose(const Matrix& b) const {
  if (range.cols() != rank || corange.cols() != rank)
    throw std::logic_error(
        "Compression::applyPinvTranspose: range and corange bases required");
  Matrix t = atb(corange, b);
  for (std::size_t i = 0; i < rank; ++i) {
    const double inv = 1.0 / sigma[i];
    for (std::size_t j = 0; j < t.cols(); ++j) t(i, j) *= inv;
  }
  return range * t;
}

Compression compress(const Matrix& m, const CompressionOptions& opts,
                     RankReport* rankReport, StaircaseReport* stairReport) {
  const std::size_t rows = m.rows(), cols = m.cols();
  obs::ObsSpan span("staircase-compress", "kernel",
                    std::min(rows, cols) >= 64);
  span.arg("minDim",
           static_cast<std::int64_t>(std::min(rows, cols)));
  Compression c;
  if (rows == 0 || cols == 0)
    c = compressEmpty(m, opts, rankReport);
  else if (isExactlyDiagonal(m))
    c = compressDiagonal(m, opts, rankReport);
  else if (rows == cols && m.isSkewSymmetric(0.0))
    c = compressSkewTridiagonal(m, opts, rankReport);
  else if (rows >= 2 * cols || cols >= 2 * rows)
    c = compressQrSvd(m, opts, rankReport);
  else
    c = compressSvd(m, opts, rankReport);
  if (stairReport) {
    ++stairReport->compressions;
    switch (c.kernelUsed) {
      case CompressionKernel::Diagonal:
        ++stairReport->diagonalFastPaths;
        break;
      case CompressionKernel::QrSvd:
        ++stairReport->qrCompressions;
        break;
      case CompressionKernel::SkewTridiagonal:
        ++stairReport->skewTridiagonalizations;
        break;
      default:
        ++stairReport->svdFallbacks;
        break;
    }
  }
  return c;
}

}  // namespace shhpass::linalg
