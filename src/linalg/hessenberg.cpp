#include "linalg/hessenberg.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "obs/trace.hpp"

namespace shhpass::linalg {
namespace {

// Blocked dgehrd/dlahr2-style reduction. Panel invariant (0-based; the
// panel starts at column k and reduces columns k .. k+nb-1):
//
//   after t reflectors, the fully updated matrix is
//       A_t = (I - V T^T V^T) (A0 - Y V^T),
//   with A0 the matrix frozen at panel start, V the n x t reflector
//   block (v_i supported on rows k+i+1 .. n-1, unit leading entry),
//   T the forward-columnwise compact-WY factor of H_0...H_{t-1}, and
//   Y = A0 V T (full height).
//
// Column k+t of A_t is materialized from that formula (two skinny
// products), the next reflector is computed from it, and V/T/Y are
// extended by one column each (dlahr2 recurrences). Only after the whole
// panel is reduced are the trailing columns updated, with three big gemm
// calls; Q is accumulated panel-by-panel at the end the same way. All
// O(n^3) work outside the skinny panel products is therefore BLAS-3.
//
// Everything happens in place, as in dgehrd. A0 needs no copy: until the
// trailing update, the columns of h past the one being reduced still hold
// A0's values, so the recurrences read them from h. V and Y are stored
// transposed (vt, yt: nb x n, row c = reflector / Y column c), so every
// panel loop runs at unit stride; the trailing update and the Q
// accumulation are view gemms on h and q. Each loop sums in the order of
// the block-copying original (tests/hessenberg_oracle.hpp), and a gemm
// gives the same bits on a view as on a copy, so H and Q are bitwise
// those of the original.
HessenbergResult hessenbergBlocked(const Matrix& a, bool wantQ) {
  const std::size_t n = a.rows();
  HessenbergResult res{a, wantQ ? Matrix::identity(n) : Matrix()};
  Matrix& h = res.h;

  struct PanelFactors {
    std::size_t k;  // first reduced column
    Matrix vt;      // nb x n reflectors, one per row
    Matrix t;       // nb x nb compact-WY factor
  };
  std::vector<PanelFactors> panels;

  std::vector<double> b(n), w(kHessenbergBlock), g(kHessenbergBlock),
      yv(n), vtail(n);
  Matrix ws1, ws2;  // nb-row products of the compact-WY updates

  for (std::size_t k = 0; k + 2 < n; k += kHessenbergBlock) {
    const std::size_t nb = std::min(kHessenbergBlock, n - 2 - k);
    Matrix vt(nb, n), yt(nb, n), tmat(nb, nb);

    for (std::size_t t = 0; t < nb; ++t) {
      const std::size_t j = k + t;

      // b := column j of A_t = (I - V T^T V^T)(A0 e_j - Y (V^T e_j)).
      for (std::size_t i = 0; i < n; ++i) b[i] = h(i, j);
      if (t > 0) {
        // b -= Y(:, 0:t) * V(j, 0:t)^T (row j of V).
        for (std::size_t c = 0; c < t; ++c) {
          const double vj = vt(c, j);
          if (vj == 0.0) continue;
          const double* yc = &yt(c, 0);
          for (std::size_t i = 0; i < n; ++i) b[i] -= yc[i] * vj;
        }
        // b -= V * (T^T (V^T b)).
        for (std::size_t c = 0; c < t; ++c) {
          const double* vc = &vt(c, 0);
          double s = 0.0;
          for (std::size_t i = k + 1 + c; i < n; ++i) s += vc[i] * b[i];
          w[c] = s;
        }
        for (std::size_t c = t; c-- > 0;) {
          double s = 0.0;
          for (std::size_t l = 0; l <= c; ++l) s += tmat(l, c) * w[l];
          g[c] = s;  // g = T^T w
        }
        for (std::size_t c = 0; c < t; ++c) {
          const double gc = g[c];
          if (gc == 0.0) continue;
          const double* vc = &vt(c, 0);
          for (std::size_t i = k + 1 + c; i < n; ++i) b[i] -= vc[i] * gc;
        }
      }

      // Reflector annihilating b(j+2 : n) (leading element b(j+1)).
      double beta;
      const double tauT =
          makeReflector(b.data() + j + 1, n - j - 1, vtail.data(), beta);
      double* vnew = &vt(t, 0);
      for (std::size_t i = j + 1; i < n; ++i) vnew[i] = vtail[i - j - 1];

      // Column j of h is final: head from b, beta on the subdiagonal,
      // exact zeros below (later reflectors of this panel cannot touch
      // it — their support starts at row j+2 and meets only zeros).
      for (std::size_t i = 0; i <= j; ++i) h(i, j) = b[i];
      h(j + 1, j) = beta;
      for (std::size_t i = j + 2; i < n; ++i) h(i, j) = 0.0;

      // Extend T: T(0:t, t) = -tau * T * (V^T v_new); T(t, t) = tau.
      for (std::size_t c = 0; c < t; ++c) {
        const double* vc = &vt(c, 0);
        double s = 0.0;
        for (std::size_t i = j + 1; i < n; ++i) s += vc[i] * vnew[i];
        g[c] = s;  // g = V(:, 0:t)^T v_new, reused by the Y update
      }
      for (std::size_t i = 0; i < t; ++i) {
        double s = 0.0;
        for (std::size_t l = i; l < t; ++l) s += tmat(i, l) * g[l];
        tmat(i, t) = -tauT * s;
      }
      tmat(t, t) = tauT;

      // Extend Y: y_new = tau * (A0 v_new - Y (V^T v_new)). The dominant
      // dot of the whole panel: stream row i of A0 (columns j+1.. of h,
      // untouched so far) against the contiguous reflector tail (vtail
      // holds v(j+1 : n, t)) through dotRows (one fixed-order dotQuad per
      // row, rows spread over the kernel pool — bit-identical at every
      // gemm width).
      dotRows(h.data() + j + 1, n, n, vtail.data(), n - j - 1, yv.data());
      for (std::size_t c = 0; c < t; ++c) {
        const double gc = g[c];
        if (gc == 0.0) continue;
        const double* yc = &yt(c, 0);
        for (std::size_t i = 0; i < n; ++i) yv[i] -= yc[i] * gc;
      }
      double* ynew = &yt(t, 0);
      for (std::size_t i = 0; i < n; ++i) ynew[i] = tauT * yv[i];
    }

    // Trailing update (the BLAS-3 bulk): columns k+nb .. n-1.
    const std::size_t trail = k + nb;
    if (trail < n) {
      const std::size_t nt = n - trail;
      // Right: H(:, trail:) -= Y * V(trail:, :)^T.
      gemm(-1.0, yt, true, ConstMatrixView(vt).block(0, trail, nb, nt), false,
           1.0, MatrixView(h).block(0, trail, n, nt));
      // Left: H(k+1:, trail:) = (I - V2 T^T V2^T) * (right-updated block),
      // as W1 = V2^T H2, W2 = T^T W1, H2 -= V2 W2.
      const ConstMatrixView v2 =
          ConstMatrixView(vt).block(0, k + 1, nb, n - k - 1);
      const MatrixView h2 = MatrixView(h).block(k + 1, trail, n - k - 1, nt);
      const MatrixView w1 = zeroedWorkspace(ws1, nb, nt);
      gemm(1.0, v2, false, h2, false, 0.0, w1);
      const MatrixView w2 = zeroedWorkspace(ws2, nb, nt);
      gemm(1.0, tmat, true, w1, false, 0.0, w2);
      gemm(-1.0, v2, true, w2, false, 1.0, h2);
    }
    panels.push_back({k, std::move(vt), std::move(tmat)});
  }

  // Accumulate Q = (I - V_0 T_0 V_0^T)(I - V_1 T_1 V_1^T)...: each panel
  // touches only columns k+1 .. n-1 of Q (the reflector support), as
  // W1 = Q2 V, W2 = W1 T, Q2 -= W2 V^T.
  if (!wantQ) return res;
  for (const PanelFactors& p : panels) {
    const std::size_t first = p.k + 1;
    const std::size_t nb = p.vt.rows();
    const ConstMatrixView v =
        ConstMatrixView(p.vt).block(0, first, nb, n - first);
    const MatrixView q2 = MatrixView(res.q).block(0, first, n, n - first);
    const MatrixView w1 = zeroedWorkspace(ws1, n, nb);
    gemm(1.0, q2, false, v, true, 0.0, w1);
    const MatrixView w2 = zeroedWorkspace(ws2, n, nb);
    gemm(1.0, w1, false, p.t, false, 0.0, w2);
    gemm(-1.0, w2, false, v, false, 1.0, q2);
  }
  return res;
}

}  // namespace

HessenbergResult hessenberg(const Matrix& a, bool wantQ) {
  if (!a.isSquare()) throw std::invalid_argument("hessenberg: not square");
  obs::ObsSpan span("hessenberg", "kernel", a.rows() >= 32);
  span.arg("n", static_cast<std::int64_t>(a.rows()));
  if (a.rows() < kHessenbergCrossover) return hessenbergUnblocked(a, wantQ);
  return hessenbergBlocked(a, wantQ);
}

HessenbergResult hessenbergUnblocked(const Matrix& a, bool wantQ) {
  if (!a.isSquare()) throw std::invalid_argument("hessenberg: not square");
  const int n = static_cast<int>(a.rows());
  HessenbergResult res{a, wantQ ? Matrix::identity(a.rows()) : Matrix()};
  if (n < 3) return res;
  Matrix& h = res.h;
  std::vector<double> ort(n, 0.0);

  const int low = 0, high = n - 1;
  for (int m = low + 1; m <= high - 1; ++m) {
    // Scale column m-1 below row m.
    double scale = 0.0;
    for (int i = m; i <= high; ++i) scale += std::abs(h(i, m - 1));
    if (scale == 0.0) continue;

    double hsum = 0.0;
    for (int i = high; i >= m; --i) {
      ort[i] = h(i, m - 1) / scale;
      hsum += ort[i] * ort[i];
    }
    double g = std::sqrt(hsum);
    if (ort[m] > 0) g = -g;
    hsum -= ort[m] * g;
    ort[m] -= g;

    // Apply Householder similarity transformation H = (I - u u^T / h) H ...
    for (int j = m; j < n; ++j) {
      double f = 0.0;
      for (int i = high; i >= m; --i) f += ort[i] * h(i, j);
      f /= hsum;
      for (int i = m; i <= high; ++i) h(i, j) -= f * ort[i];
    }
    // ... (I - u u^T / h) from the right.
    for (int i = 0; i <= high; ++i) {
      double f = 0.0;
      for (int j = high; j >= m; --j) f += ort[j] * h(i, j);
      f /= hsum;
      for (int j = m; j <= high; ++j) h(i, j) -= f * ort[j];
    }
    ort[m] *= scale;
    h(m, m - 1) = scale * g;
  }

  // Accumulate transformations (ortran): requires the reflector vectors
  // still stored in the subdiagonal part of h plus ort[].
  if (wantQ) {
    Matrix& q = res.q;
    for (int m = high - 1; m >= low + 1; --m) {
      if (h(m, m - 1) != 0.0) {
        for (int i = m + 1; i <= high; ++i) ort[i] = h(i, m - 1);
        for (int j = m; j <= high; ++j) {
          double g = 0.0;
          for (int i = m; i <= high; ++i) g += ort[i] * q(i, j);
          // Double division avoids possible underflow (EISPACK comment).
          g = (g / ort[m]) / h(m, m - 1);
          for (int i = m; i <= high; ++i) q(i, j) += g * ort[i];
        }
      }
    }
  }
  // Zero out the sub-Hessenberg entries now that Q is accumulated.
  for (int i = 2; i < n; ++i)
    for (int j = 0; j < i - 1; ++j) h(i, j) = 0.0;
  return res;
}

}  // namespace shhpass::linalg
