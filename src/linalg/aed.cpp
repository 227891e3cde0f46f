#include "linalg/aed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/schur.hpp"
#include "linalg/schur_reorder.hpp"

namespace shhpass::linalg {
namespace {

/// |lambda| of the diagonal block at (j, j) of a quasi-triangular matrix
/// (1x1: the entry; standardized 2x2: sqrt|det| = the pair's modulus).
double blockEigMagnitude(const Matrix& t, std::size_t j, std::size_t b) {
  if (b == 1) return std::abs(t(j, j));
  const double det =
      t(j, j) * t(j + 1, j + 1) - t(j, j + 1) * t(j + 1, j);
  return std::sqrt(std::abs(det));
}

// dst <- src, row by row (same shape).
void copyRows(ConstMatrixView src, MatrixView dst) {
  for (std::size_t i = 0; i < src.rows; ++i)
    std::copy_n(src.data + i * src.ld, src.cols, dst.data + i * dst.ld);
}

}  // namespace

void applyWindowTransform(Matrix& h, Matrix& z, const Matrix& u,
                          std::size_t w0, Matrix& ws) {
  const std::size_t n = h.rows();
  const std::size_t nw = u.rows();
  const std::size_t right = w0 + nw;
  if (w0 > 0) {
    const MatrixView top = MatrixView(h).block(0, w0, w0, nw);
    const MatrixView out = zeroedWorkspace(ws, w0, nw);
    gemm(1.0, top, false, u, false, 0.0, out);
    copyRows(out, top);
  }
  if (right < n) {
    const MatrixView rows = MatrixView(h).block(w0, right, nw, n - right);
    const MatrixView out = zeroedWorkspace(ws, nw, n - right);
    gemm(1.0, u, true, rows, false, 0.0, out);
    copyRows(out, rows);
  }
  if (z.rows() > 0) {
    const MatrixView cols = MatrixView(z).block(0, w0, z.rows(), nw);
    const MatrixView out = zeroedWorkspace(ws, z.rows(), nw);
    gemm(1.0, cols, false, u, false, 0.0, out);
    copyRows(out, cols);
  }
}

AedResult aggressiveEarlyDeflation(Matrix& h, Matrix& z, std::size_t ilo,
                                   std::size_t ihi, std::size_t nw,
                                   SchurReport& report, Matrix& ws) {
  AedResult out;
  const std::size_t kwtop = ihi - nw + 1;
  const double eps = std::numeric_limits<double>::epsilon();
  const double smlnum = std::numeric_limits<double>::min() *
                        (static_cast<double>(nw) / eps);
  const double spike = (kwtop > ilo) ? h(kwtop, kwtop - 1) : 0.0;

  ++report.aedWindows;

  // 1. Schur-factor the window on a copy, with the same cleanup contract
  // realSchur uses (exact quasi-triangular structure, standardized 2x2
  // blocks) so the block scan and the swaps below are well defined.
  Matrix t = h.block(kwtop, kwtop, nw, nw);
  Matrix v = Matrix::identity(nw);
  francisSchurWindow(t, v, 0, nw - 1, &report);
  for (std::size_t i = 0; i < nw; ++i)
    for (std::size_t j = 0; j + 1 < i; ++j) t(i, j) = 0.0;
  for (std::size_t i = 0; i + 1 < nw; ++i) {
    const double sub = std::abs(t(i + 1, i));
    if (sub != 0.0 &&
        sub <= eps * (std::abs(t(i, i)) + std::abs(t(i + 1, i + 1))))
      t(i + 1, i) = 0.0;
  }
  report.structureRepairs += repairQuasiTriangularStructure(t);
  standardizeQuasiTriangular(t, v);

  // 2. Deflation scan. The window similarity turns the single
  // subdiagonal entry s = H(kwtop, kwtop-1) into the "spike" column
  // s * V(0, :)^T; an eigenvalue block at the bottom of the window whose
  // spike feet are negligible against its own magnitude is converged and
  // is locked into the tail [end, nw). An undeflatable block is bubbled
  // to the top region [0, keep) with the residual-checked swaps, so the
  // next candidate surfaces at the bottom. A rejected swap ends the scan
  // conservatively (fewer deflations, never a corrupted spectrum).
  std::size_t keep = 0;
  std::size_t end = nw;
  while (keep < end) {
    std::size_t b = 1;
    if (end - keep >= 2 && t(end - 1, end - 2) != 0.0) b = 2;
    const std::size_t j = end - b;
    double foot = 0.0;
    for (std::size_t c = j; c < end; ++c)
      foot = std::max(foot, std::abs(spike * v(0, c)));
    const double thresh = std::max(smlnum, eps * blockEigMagnitude(t, j, b));
    if (foot <= thresh) {
      end -= b;
      continue;
    }
    bool moved = true;
    std::size_t pos = j;
    while (pos > keep) {
      std::size_t pb = 1;
      if (pos >= 2 && t(pos - 1, pos - 2) != 0.0) pb = 2;
      if (!swapAdjacentBlocks(t, v, pos - pb, pb, b, nullptr)) {
        moved = false;
        break;
      }
      pos -= pb;
    }
    if (!moved) {
      keep = end;
      break;
    }
    keep += b;
  }

  const std::size_t js = end;  // undeflated leading part
  out.deflated = nw - js;
  report.aedDeflations += out.deflated;

  // 3. Harvest the undeflated eigenvalues as the next sweep's shifts.
  if (js > 0) {
    const Matrix lead = t.block(0, 0, js, js);
    out.shifts = quasiTriangularEigenvalues(lead);
  }

  // Nothing deflated and a live spike: discard the window transform —
  // the shifts are basis-independent and skipping the commit saves the
  // off-window gemms.
  if (out.deflated == 0 && spike != 0.0) return out;

  // 4. Reflect the spike back to a single subdiagonal entry and restore
  // the Hessenberg structure of the undeflated part (unblocked — the
  // window is small).
  double beta = 0.0;
  if (spike != 0.0 && js > 0) {
    if (js == 1) {
      beta = spike * v(0, 0);
    } else {
      std::vector<double> w(js), refl(js);
      for (std::size_t i = 0; i < js; ++i) w[i] = spike * v(0, i);
      const double tau = makeReflector(w.data(), js, refl.data(), beta);
      if (tau != 0.0) {
        // T := P T (rows 0..js-1, all window columns).
        for (std::size_t jj = 0; jj < nw; ++jj) {
          double s = 0.0;
          for (std::size_t i = 0; i < js; ++i) s += refl[i] * t(i, jj);
          s *= tau;
          for (std::size_t i = 0; i < js; ++i) t(i, jj) -= s * refl[i];
        }
        // T := T P (columns 0..js-1; rows below js hold exact zeros).
        for (std::size_t i = 0; i < js; ++i) {
          double s = 0.0;
          for (std::size_t jj = 0; jj < js; ++jj) s += t(i, jj) * refl[jj];
          s *= tau;
          for (std::size_t jj = 0; jj < js; ++jj) t(i, jj) -= s * refl[jj];
        }
        // V := V P (all window rows).
        for (std::size_t i = 0; i < nw; ++i) {
          double s = 0.0;
          for (std::size_t jj = 0; jj < js; ++jj) s += v(i, jj) * refl[jj];
          s *= tau;
          for (std::size_t jj = 0; jj < js; ++jj) v(i, jj) -= s * refl[jj];
        }
      }
      // Hessenberg-reduce the leading js x js part, applying each
      // reflector across the window and accumulating it into V.
      for (std::size_t col = 0; col + 2 < js; ++col) {
        const std::size_t len = js - col - 1;
        std::vector<double> x(len), hv(len);
        for (std::size_t i = 0; i < len; ++i) x[i] = t(col + 1 + i, col);
        double b1;
        const double tau2 = makeReflector(x.data(), len, hv.data(), b1);
        t(col + 1, col) = b1;
        for (std::size_t i = col + 2; i < js; ++i) t(i, col) = 0.0;
        if (tau2 == 0.0) continue;
        // Left: rows col+1..js-1, columns col+1..nw-1.
        for (std::size_t jj = col + 1; jj < nw; ++jj) {
          double s = 0.0;
          for (std::size_t i = 0; i < len; ++i)
            s += hv[i] * t(col + 1 + i, jj);
          s *= tau2;
          for (std::size_t i = 0; i < len; ++i) t(col + 1 + i, jj) -= s * hv[i];
        }
        // Right: columns col+1..js-1, rows 0..js-1.
        for (std::size_t i = 0; i < js; ++i) {
          double s = 0.0;
          for (std::size_t jj = 0; jj < len; ++jj)
            s += t(i, col + 1 + jj) * hv[jj];
          s *= tau2;
          for (std::size_t jj = 0; jj < len; ++jj)
            t(i, col + 1 + jj) -= s * hv[jj];
        }
        // V := V P (all window rows).
        for (std::size_t i = 0; i < nw; ++i) {
          double s = 0.0;
          for (std::size_t jj = 0; jj < len; ++jj)
            s += v(i, col + 1 + jj) * hv[jj];
          s *= tau2;
          for (std::size_t jj = 0; jj < len; ++jj)
            v(i, col + 1 + jj) -= s * hv[jj];
        }
      }
    }
  }

  // 5. Commit: window block, spike column, and the off-window gemms.
  h.setBlock(kwtop, kwtop, t);
  if (kwtop > ilo) {
    h(kwtop, kwtop - 1) = beta;
    for (std::size_t i = kwtop + 1; i <= ihi; ++i) h(i, kwtop - 1) = 0.0;
  }
  applyWindowTransform(h, z, v, kwtop, ws);
  return out;
}

}  // namespace shhpass::linalg
