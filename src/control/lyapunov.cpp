#include "control/lyapunov.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "control/sylvester.hpp"
#include "linalg/blas.hpp"
#include "obs/trace.hpp"

namespace shhpass::control {

using linalg::Matrix;

Matrix solveLyapunov(const Matrix& a, const Matrix& q) {
  if (!a.isSquare() || !q.isSquare() || a.rows() != q.rows())
    throw std::invalid_argument("solveLyapunov: shape mismatch");
  const std::size_t n = a.rows();
  obs::ObsSpan span("lyapunov", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  // Fast paths: a coefficient that is already a real Schur factor (the
  // Eq.-(23) decoupling hands us the reordered quasi-triangular stable
  // block) — or the transpose of one (the observability-Gramian solve of
  // the balanced-truncation reduction) — goes straight to the blocked
  // quasi-triangular kernel, skipping both Schur factorizations of the
  // general solver.
  Matrix y;
  if (isQuasiTriangular(a)) {
    y = solveSylvesterQuasiTriangular(a, false, a, true, -1.0 * q);
  } else {
    const Matrix at = a.transposed();
    y = isQuasiTriangular(at)
            ? solveSylvesterQuasiTriangular(at, true, at, false, -1.0 * q)
            : solveSylvester(a, at, -1.0 * q);
  }
  if (q.isSymmetric(1e-12 * std::max(1.0, q.maxAbs()))) linalg::symmetrize(y);
  return y;
}

}  // namespace shhpass::control
