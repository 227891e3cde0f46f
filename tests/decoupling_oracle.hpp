// Reference implementations of the two BLAS-2 kernels behind the Eq.-22/23
// decoupling, kept unchanged in arithmetic as the oracles the gemm-rich
// production kernels are compared against (test_schur_reorder_random.cpp,
// test_sylvester_lyapunov.cpp) and as the baselines of bench_pipeline's
// `reorder` and `lyapunov` kernel rows:
//
//   * reorderSchurBubble — the historical reorderSchur loop: every
//     selected block is bubbled to the top by adjacent swaps, each swap
//     updating the full rows/columns of T and the columns of Q in place
//     (O(n) BLAS-1 work per swap, no window accumulation);
//   * the three quasi-triangular back-substitutions (S Y + Y T = F,
//     S Y + Y S^T = F, S^T Y + Y S = F), one 1x1/2x2 block at a time with
//     a Matrix::block copy per block pair.
//
// Header-only; not part of the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"
#include "linalg/schur_reorder.hpp"

namespace shhpass::oracle {

using linalg::Matrix;

namespace detail {

// Representative eigenvalue of the diagonal block at (j, j).
inline std::complex<double> blockEigenvalue(const Matrix& t, std::size_t j,
                                            std::size_t sz) {
  if (sz == 1) return {t(j, j), 0.0};
  const double a11 = t(j, j), a12 = t(j, j + 1);
  const double a21 = t(j + 1, j), a22 = t(j + 1, j + 1);
  const double tr2 = (a11 + a22) / 2.0;
  const double det = a11 * a22 - a12 * a21;
  const double disc = tr2 * tr2 - det;
  if (disc >= 0.0) return {tr2 + std::sqrt(disc), 0.0};
  return {tr2, std::sqrt(-disc)};
}

// Diagonal block partition (start, size) of a quasi-triangular matrix.
inline std::vector<std::pair<std::size_t, std::size_t>> blocks(
    const Matrix& t) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < t.rows()) {
    const std::size_t sz = (i + 1 < t.rows() && t(i + 1, i) != 0.0) ? 2 : 1;
    out.emplace_back(i, sz);
    i += sz;
  }
  return out;
}

// A X + X B = C with p, q <= 2 through the Kronecker linear system.
inline Matrix smallBlockSolve(const Matrix& a, const Matrix& b,
                              const Matrix& c) {
  const std::size_t p = a.rows(), q = b.rows();
  const std::size_t pq = p * q;
  double k[16] = {0.0};
  double rhs[4];
  for (std::size_t j = 0; j < q; ++j)
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t row = j * p + i;
      for (std::size_t l = 0; l < p; ++l) k[row * pq + j * p + l] += a(i, l);
      for (std::size_t l = 0; l < q; ++l) k[row * pq + l * p + i] += b(l, j);
      rhs[row] = c(i, j);
    }
  if (!linalg::solveSmallDense(k, rhs, pq, 1e-13))
    throw std::runtime_error(
        "solveSylvester: spectra of A and -B intersect; equation singular");
  Matrix x(p, q);
  for (std::size_t j = 0; j < q; ++j)
    for (std::size_t i = 0; i < p; ++i) x(i, j) = rhs[j * p + i];
  return x;
}

}  // namespace detail

/// The historical reorderSchur: same contract and report as
/// linalg::reorderSchur, realized by one swapAdjacentBlocks call per
/// adjacent exchange on the full matrices. One scan over the blocks moves
/// each selected block once; a rejected swap leaves the block in place for
/// the rest of the scan, and a split (a swap's standardization dissolving
/// a 2x2 block) forces a rescan of the block structure.
inline std::size_t reorderSchurBubble(
    Matrix& t, Matrix& q, const linalg::EigenvalueSelector& select,
    linalg::ReorderReport* report = nullptr) {
  const std::size_t n = t.rows();
  if (q.rows() != n || q.cols() != n)
    throw std::invalid_argument("reorderSchurBubble: shape mismatch");
  linalg::ReorderReport local;
  linalg::ReorderReport& rep = report ? *report : local;
  rep = linalg::ReorderReport{};
  linalg::repairQuasiTriangularStructure(t);
  linalg::standardizeQuasiTriangular(t, q, &rep);

  std::size_t target = 0;
  bool rescan = true;
  while (rescan) {
    rescan = false;
    std::vector<std::size_t> starts, sizes;
    for (const auto& [start, size] : detail::blocks(t)) {
      starts.push_back(start);
      sizes.push_back(size);
    }
    for (std::size_t b = 0; b < sizes.size() && !rescan; ++b) {
      if (starts[b] < target) continue;
      if (!select(detail::blockEigenvalue(t, starts[b], sizes[b]))) continue;
      std::size_t cur = b;
      while (starts[cur] > target) {
        const std::size_t szAbove = sizes[cur - 1];
        const std::size_t szMove = sizes[cur];
        if (!linalg::swapAdjacentBlocks(t, q, starts[cur - 1], szAbove,
                                        szMove, &rep))
          break;
        const std::size_t newPos = starts[cur - 1];
        const bool movedSplit = szMove == 2 && t(newPos + 1, newPos) == 0.0;
        const bool aboveSplit =
            szAbove == 2 && t(newPos + szMove + 1, newPos + szMove) == 0.0;
        sizes[cur - 1] = szMove;
        sizes[cur] = szAbove;
        starts[cur] = starts[cur - 1] + szMove;
        --cur;
        if (movedSplit || aboveSplit) {
          rescan = true;
          break;
        }
      }
      if (!rescan && starts[cur] == target) target += sizes[cur];
    }
  }
  return target;
}

/// S Y + Y T = F with S and T quasi-upper-triangular: column blocks left
/// to right, row blocks bottom to top.
inline Matrix solveSylvesterBackSubstitution(const Matrix& s, const Matrix& t,
                                             const Matrix& f) {
  const std::size_t n = s.rows(), m = t.rows();
  if (f.rows() != n || f.cols() != m)
    throw std::invalid_argument("solveSylvesterBackSubstitution: shape");
  Matrix y(n, m);
  const auto sBlocks = detail::blocks(s);
  const auto tBlocks = detail::blocks(t);
  for (const auto& [kc, qc] : tBlocks) {
    Matrix rhsCol = f.block(0, kc, n, qc);
    if (kc > 0) rhsCol -= y.block(0, 0, n, kc) * t.block(0, kc, kc, qc);
    const Matrix tkk = t.block(kc, kc, qc, qc);
    for (auto it = sBlocks.rbegin(); it != sBlocks.rend(); ++it) {
      const auto [ir, pr] = *it;
      Matrix r = rhsCol.block(ir, 0, pr, qc);
      const std::size_t below = ir + pr;
      if (below < n)
        r -= s.block(ir, below, pr, n - below) *
             y.block(below, kc, n - below, qc);
      y.setBlock(ir, kc,
                 detail::smallBlockSolve(s.block(ir, ir, pr, pr), tkk, r));
    }
  }
  return y;
}

/// S Y + Y S^T = F with S quasi-upper-triangular: column blocks right to
/// left, row blocks bottom to top.
inline Matrix solveSylvesterBackSubstitutionTransposedRight(const Matrix& s,
                                                            const Matrix& f) {
  const std::size_t n = s.rows();
  if (!s.isSquare() || f.rows() != n || f.cols() != n)
    throw std::invalid_argument(
        "solveSylvesterBackSubstitutionTransposedRight: shape");
  Matrix y(n, n);
  const auto sBlocks = detail::blocks(s);
  for (auto ct = sBlocks.rbegin(); ct != sBlocks.rend(); ++ct) {
    const auto [kc, qc] = *ct;
    Matrix rhsCol = f.block(0, kc, n, qc);
    const std::size_t after = kc + qc;
    if (after < n)
      rhsCol -= linalg::abt(y.block(0, after, n, n - after),
                            s.block(kc, after, qc, n - after));
    const Matrix tkk = s.block(kc, kc, qc, qc).transposed();
    for (auto it = sBlocks.rbegin(); it != sBlocks.rend(); ++it) {
      const auto [ir, pr] = *it;
      Matrix r = rhsCol.block(ir, 0, pr, qc);
      const std::size_t below = ir + pr;
      if (below < n)
        r -= s.block(ir, below, pr, n - below) *
             y.block(below, kc, n - below, qc);
      y.setBlock(ir, kc,
                 detail::smallBlockSolve(s.block(ir, ir, pr, pr), tkk, r));
    }
  }
  return y;
}

/// S^T Y + Y S = F with S quasi-upper-triangular: column blocks left to
/// right, row blocks top to bottom.
inline Matrix solveSylvesterBackSubstitutionTransposedLeft(const Matrix& s,
                                                           const Matrix& f) {
  const std::size_t n = s.rows();
  if (!s.isSquare() || f.rows() != n || f.cols() != n)
    throw std::invalid_argument(
        "solveSylvesterBackSubstitutionTransposedLeft: shape");
  Matrix y(n, n);
  const auto sBlocks = detail::blocks(s);
  for (const auto& [kc, qc] : sBlocks) {
    Matrix rhsCol = f.block(0, kc, n, qc);
    if (kc > 0) rhsCol -= y.block(0, 0, n, kc) * s.block(0, kc, kc, qc);
    const Matrix tkk = s.block(kc, kc, qc, qc);
    for (const auto& [ir, pr] : sBlocks) {
      Matrix r = rhsCol.block(ir, 0, pr, qc);
      if (ir > 0)
        r -= linalg::atb(s.block(0, ir, ir, pr), y.block(0, kc, ir, qc));
      y.setBlock(ir, kc,
                 detail::smallBlockSolve(
                     s.block(ir, ir, pr, pr).transposed(), tkk, r));
    }
  }
  return y;
}

/// The historical solveLyapunov fast path for a quasi-triangular
/// coefficient: A Y + Y A^T + Q = 0, symmetrized when Q is symmetric.
inline Matrix solveLyapunovBackSubstitution(const Matrix& a, const Matrix& q) {
  Matrix y = solveSylvesterBackSubstitutionTransposedRight(a, -1.0 * q);
  if (q.isSymmetric(1e-12 * std::max(1.0, q.maxAbs()))) linalg::symmetrize(y);
  return y;
}

}  // namespace shhpass::oracle
