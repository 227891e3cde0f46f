#include "control/sylvester.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"

namespace shhpass::control {

using linalg::Matrix;

namespace {

using Range = std::pair<std::size_t, std::size_t>;  // [first, last)

// Diagonal block partition of a quasi-triangular matrix.
std::vector<Range> diagonalBlocks(const Matrix& t) {
  std::vector<Range> out;
  std::size_t i = 0;
  while (i < t.rows()) {
    const std::size_t sz = (i + 1 < t.rows() && t(i + 1, i) != 0.0) ? 2 : 1;
    out.emplace_back(i, i + sz);
    i += sz;
  }
  return out;
}

// Consecutive diagonal blocks merged into ranges of at least
// kSylvesterPanel rows (the last one may be shorter).
std::vector<Range> panels(const std::vector<Range>& blocks) {
  std::vector<Range> out;
  for (const auto& [first, last] : blocks) {
    if (out.empty() || out.back().second - out.back().first >= kSylvesterPanel)
      out.emplace_back(first, last);
    else
      out.back().second = last;
  }
  return out;
}

// op(M)(i, j) for op = identity or transpose.
double opAt(const Matrix& m, bool trans, std::size_t i, std::size_t j) {
  return trans ? m(j, i) : m(i, j);
}

// Solve the small system op(A)_ii X + X op(B)_kk = Y(rows, cols) in place
// (p, q <= 2) via the Kronecker linear system on stack storage.
void smallBlockSolve(const Matrix& a, bool transA, const Range& rows,
                     const Matrix& b, bool transB, const Range& cols,
                     Matrix& y) {
  const std::size_t i0 = rows.first, p = rows.second - rows.first;
  const std::size_t k0 = cols.first, q = cols.second - cols.first;
  const std::size_t pq = p * q;
  double k[16] = {0.0};
  double rhs[4];
  // vec is column-major: x_{i,j} -> index j*p + i.
  for (std::size_t j = 0; j < q; ++j)
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t row = j * p + i;
      for (std::size_t l = 0; l < p; ++l)
        k[row * pq + j * p + l] += opAt(a, transA, i0 + i, i0 + l);
      for (std::size_t l = 0; l < q; ++l)
        k[row * pq + l * p + i] += opAt(b, transB, k0 + l, k0 + j);
      rhs[row] = y(i0 + i, k0 + j);
    }
  if (!linalg::solveSmallDense(k, rhs, pq, 1e-13))
    throw std::runtime_error(
        "solveSylvester: spectra of A and -B intersect; equation singular");
  for (std::size_t j = 0; j < q; ++j)
    for (std::size_t i = 0; i < p; ++i) y(i0 + i, k0 + j) = rhs[j * p + i];
}

// Solve op(A) X + X op(B) = Y in place for a diagonal tile (A and B are
// the tile's own quasi-triangular coefficient blocks), one 1x1/2x2 block
// pair at a time; Y must already carry every contribution of unknowns
// outside the tile.
void solveTile(const Matrix& a, bool transA, const Matrix& b, bool transB,
               Matrix& y) {
  const std::size_t m = a.rows(), n = b.rows();
  std::vector<Range> rowBlocks = diagonalBlocks(a);
  std::vector<Range> colBlocks = diagonalBlocks(b);
  if (!transA) std::reverse(rowBlocks.begin(), rowBlocks.end());
  if (transB) std::reverse(colBlocks.begin(), colBlocks.end());
  for (const Range& kb : colBlocks) {
    // Columns solved before this block: left of it when op(B) is upper
    // triangular, right of it when op(B) = B^T.
    const Range done = transB ? Range{kb.second, n} : Range{0, kb.first};
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t kk = kb.first; kk < kb.second; ++kk) {
        double s = 0.0;
        for (std::size_t l = done.first; l < done.second; ++l)
          s += y(i, l) * opAt(b, transB, l, kk);
        y(i, kk) -= s;
      }
    for (const Range& ib : rowBlocks) {
      // Rows solved before this block: below it when op(A) is upper
      // triangular, above it when op(A) = A^T.
      const Range doneRows = transA ? Range{0, ib.first} : Range{ib.second, m};
      for (std::size_t i = ib.first; i < ib.second; ++i)
        for (std::size_t kk = kb.first; kk < kb.second; ++kk) {
          double s = 0.0;
          for (std::size_t l = doneRows.first; l < doneRows.second; ++l)
            s += opAt(a, transA, i, l) * y(l, kk);
          y(i, kk) -= s;
        }
      smallBlockSolve(a, transA, ib, b, transB, kb, y);
    }
  }
}

}  // namespace

Matrix solveSylvesterQuasiTriangular(const Matrix& a, bool transA,
                                     const Matrix& b, bool transB,
                                     const Matrix& c) {
  const std::size_t m = a.rows(), n = b.rows();
  if (!a.isSquare() || !b.isSquare() || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("solveSylvesterQuasiTriangular: shape");
  Matrix y = c;
  if (m == 0 || n == 0) return y;
  std::vector<Range> rowPanels = panels(diagonalBlocks(a));
  std::vector<Range> colPanels = panels(diagonalBlocks(b));
  // Row blocks bottom to top when op(A) is upper triangular, top to bottom
  // when op(A) = A^T; column panels left to right when op(B) is upper
  // triangular, right to left when op(B) = B^T.
  if (!transA) std::reverse(rowPanels.begin(), rowPanels.end());
  if (transB) std::reverse(colPanels.begin(), colPanels.end());

  for (const auto& [c0, c1] : colPanels) {
    const std::size_t nc = c1 - c0;
    Matrix panel = y.block(0, c0, m, nc);
    // Y(:, J) -= X(:, solved) op(B)(solved, J): one gemm.
    if (!transB && c0 > 0)
      linalg::gemm(-1.0, y.block(0, 0, m, c0), false,
                   b.block(0, c0, c0, nc), false, 1.0, panel);
    if (transB && c1 < n)
      linalg::gemm(-1.0, y.block(0, c1, m, n - c1), false,
                   b.block(c0, c1, nc, n - c1), true, 1.0, panel);
    const Matrix bjj = b.block(c0, c0, nc, nc);
    for (const auto& [r0, r1] : rowPanels) {
      const std::size_t nr = r1 - r0;
      Matrix tile = panel.block(r0, 0, nr, nc);
      // Y(I, J) -= op(A)(I, solved) X(solved, J): one gemm.
      if (!transA && r1 < m)
        linalg::gemm(-1.0, a.block(r0, r1, nr, m - r1), false,
                     panel.block(r1, 0, m - r1, nc), false, 1.0, tile);
      if (transA && r0 > 0)
        linalg::gemm(-1.0, a.block(0, r0, r0, nr), true,
                     panel.block(0, 0, r0, nc), false, 1.0, tile);
      solveTile(a.block(r0, r0, nr, nr), transA, bjj, transB, tile);
      panel.setBlock(r0, 0, tile);
    }
    y.setBlock(0, c0, panel);
  }
  return y;
}

bool isQuasiTriangular(const Matrix& t) {
  if (!t.isSquare()) return false;
  const std::size_t n = t.rows();
  for (std::size_t i = 2; i < n; ++i)
    for (std::size_t j = 0; j + 1 < i; ++j)
      if (t(i, j) != 0.0) return false;
  for (std::size_t i = 0; i + 2 < n; ++i)
    if (t(i + 1, i) != 0.0 && t(i + 2, i + 1) != 0.0) return false;
  return true;
}

Matrix solveSylvester(const Matrix& a, const Matrix& b, const Matrix& c) {
  if (!a.isSquare() || !b.isSquare() || c.rows() != a.rows() ||
      c.cols() != b.rows())
    throw std::invalid_argument("solveSylvester: shape mismatch");
  if (a.rows() == 0 || b.rows() == 0) return Matrix(a.rows(), b.rows());
  // A = U S U^T, B = V T V^T; then S Y + Y T = U^T C V with X = U Y V^T.
  linalg::RealSchurResult sa = linalg::realSchur(a);
  linalg::RealSchurResult sb = linalg::realSchur(b);
  Matrix f = linalg::multiply(linalg::atb(sa.q, c), false, sb.q, false);
  Matrix y = solveSylvesterQuasiTriangular(sa.t, false, sb.t, false, f);
  return sa.q * linalg::abt(y, sb.q);
}

}  // namespace shhpass::control
