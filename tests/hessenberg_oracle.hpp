// The blocked Hessenberg reduction as it was before its updates moved in
// place: every panel copies the trailing slab A0 out of H, stores V and
// Y as n x nb matrices, and round-trips the trailing update and the Q
// accumulation through Matrix::block() / setBlock() copies (the Q update
// through applyBlockReflectorRight, which the library no longer needs).
// linalg::hessenberg() must reproduce its H and Q bit for bit at every
// gemm width (test_blas_blocked.cpp). Header-only; not part of the
// library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/hessenberg.hpp"
#include "linalg/householder.hpp"

namespace shhpass::oracle {

using linalg::HessenbergResult;
using linalg::kHessenbergBlock;
using linalg::Matrix;

/// C := C (I - V T V^T) = C Q via three gemm calls (V in the compact-WY
/// convention of linalg/householder.hpp). C must have v.rows() columns.
inline void applyBlockReflectorRight(const Matrix& v, const Matrix& t,
                                     Matrix& c) {
  if (c.cols() != v.rows())
    throw std::invalid_argument("applyBlockReflectorRight: shape mismatch");
  if (v.cols() == 0) return;
  // W = (C V) T; C -= W V^T.
  Matrix w = linalg::multiply(c * v, false, t, false);
  linalg::gemm(-1.0, w, false, v, true, 1.0, c);
}

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
inline HessenbergResult hessenbergBlockCopying(const Matrix& a,
                                               bool wantQ = true) {
  const std::size_t n = a.rows();
  HessenbergResult res{a, wantQ ? Matrix::identity(n) : Matrix()};
  Matrix& h = res.h;

  struct PanelFactors {
    std::size_t k;  // first reduced column
    Matrix v;       // n x nb reflectors
    Matrix t;       // nb x nb compact-WY factor
  };
  std::vector<PanelFactors> panels;

  std::vector<double> b(n), w(kHessenbergBlock), g(kHessenbergBlock),
      yv(n), vtail(n);

  for (std::size_t k = 0; k + 2 < n; k += kHessenbergBlock) {
    const std::size_t nb = std::min(kHessenbergBlock, n - 2 - k);
    // Frozen panel-start matrix; the recurrences only ever read columns
    // >= k, so only the trailing slab is copied. a0(i, c) below indexes
    // the FULL-matrix column c as a0(i, c - k).
    const Matrix a0 = h.block(0, k, n, n - k);
    Matrix v(n, nb), y(n, nb), tmat(nb, nb);
    std::vector<double> tau(nb, 0.0);

    for (std::size_t t = 0; t < nb; ++t) {
      const std::size_t j = k + t;

      // b := column j of A_t = (I - V T^T V^T)(A0 e_j - Y (V^T e_j)).
      for (std::size_t i = 0; i < n; ++i) b[i] = a0(i, j - k);
      if (t > 0) {
        // b -= Y(:, 0:t) * V(j, 0:t)^T (row j of V).
        for (std::size_t c = 0; c < t; ++c) {
          const double vj = v(j, c);
          if (vj == 0.0) continue;
          for (std::size_t i = 0; i < n; ++i) b[i] -= y(i, c) * vj;
        }
        // b -= V * (T^T (V^T b)).
        for (std::size_t c = 0; c < t; ++c) {
          double s = 0.0;
          for (std::size_t i = k + 1 + c; i < n; ++i) s += v(i, c) * b[i];
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
          for (std::size_t i = k + 1 + c; i < n; ++i) b[i] -= v(i, c) * gc;
        }
      }

      // Reflector annihilating b(j+2 : n) (leading element b(j+1)).
      double beta;
      const double tauT = linalg::makeReflector(b.data() + j + 1, n - j - 1,
                                                vtail.data(), beta);
      tau[t] = tauT;
      for (std::size_t i = j + 1; i < n; ++i) v(i, t) = vtail[i - j - 1];

      // Column j of h is final: head from b, beta on the subdiagonal,
      // exact zeros below (later reflectors of this panel cannot touch
      // it — their support starts at row j+2 and meets only zeros).
      for (std::size_t i = 0; i <= j; ++i) h(i, j) = b[i];
      h(j + 1, j) = beta;
      for (std::size_t i = j + 2; i < n; ++i) h(i, j) = 0.0;

      // Extend T: T(0:t, t) = -tau * T * (V^T v_new); T(t, t) = tau.
      for (std::size_t c = 0; c < t; ++c) {
        double s = 0.0;
        for (std::size_t i = j + 1; i < n; ++i) s += v(i, c) * v(i, t);
        g[c] = s;  // g = V(:, 0:t)^T v_new, reused by the Y update
      }
      for (std::size_t i = 0; i < t; ++i) {
        double s = 0.0;
        for (std::size_t l = i; l < t; ++l) s += tmat(i, l) * g[l];
        tmat(i, t) = -tauT * s;
      }
      tmat(t, t) = tauT;

      // Extend Y: y_new = tau * (A0 v_new - Y (V^T v_new)). The dominant
      // dot of the whole panel: stream row i of a0 against the contiguous
      // reflector tail (vtail holds v(j+1 : n, t)) through dotRows (one
      // fixed-order dotQuad per row, rows spread over the kernel pool —
      // bit-identical at every gemm width).
      linalg::dotRows(a0.data() + (j + 1 - k), a0.cols(), n, vtail.data(),
                      n - j - 1, yv.data());
      for (std::size_t c = 0; c < t; ++c) {
        const double gc = g[c];
        if (gc == 0.0) continue;
        for (std::size_t i = 0; i < n; ++i) yv[i] -= y(i, c) * gc;
      }
      for (std::size_t i = 0; i < n; ++i) y(i, t) = tauT * yv[i];
    }

    // Trailing update (the BLAS-3 bulk): columns k+nb .. n-1.
    const std::size_t trail = k + nb;
    if (trail < n) {
      // Right: H(:, trail:) -= Y * V(trail:, :)^T.
      Matrix cblk = h.block(0, trail, n, n - trail);
      linalg::gemm(-1.0, y, false, v.block(trail, 0, n - trail, nb), true,
                   1.0, cblk);
      // Left: H(k+1:, trail:) = (I - V2 T^T V2^T) * (right-updated block).
      Matrix top = cblk.block(0, 0, k + 1, n - trail);
      Matrix bot = cblk.block(k + 1, 0, n - k - 1, n - trail);
      linalg::applyBlockReflectorLeft(v.block(k + 1, 0, n - k - 1, nb),
                                      tmat, /*transpose=*/true, bot);
      h.setBlock(0, trail, top);
      h.setBlock(k + 1, trail, bot);
    }
    panels.push_back({k, std::move(v), std::move(tmat)});
  }

  // Accumulate Q = (I - V_0 T_0 V_0^T)(I - V_1 T_1 V_1^T)...: each panel
  // touches only columns k+1 .. n-1 of Q (the reflector support).
  if (!wantQ) return res;
  for (const PanelFactors& p : panels) {
    const std::size_t first = p.k + 1;
    Matrix qcols = res.q.block(0, first, n, n - first);
    applyBlockReflectorRight(
        p.v.block(first, 0, n - first, p.v.cols()), p.t, qcols);
    res.q.setBlock(0, first, qcols);
  }
  return res;
}

}  // namespace shhpass::oracle
