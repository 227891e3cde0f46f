#include "control/hamiltonian.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/schur.hpp"

namespace shhpass::control {

using linalg::Matrix;

namespace {

// J * H for the symplectic unit J = [0 I; -I 0] is a signed row swap,
// J [A B; C D] = [C D; -A -B] — formed directly in O(n^2) instead of the
// historical O(n^3) dense product with an explicit J.
Matrix symplecticJTimes(const Matrix& h) {
  const std::size_t n2 = h.rows(), n = n2 / 2;
  Matrix jh(n2, n2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n2; ++j) {
      jh(i, j) = h(n + i, j);
      jh(n + i, j) = -h(i, j);
    }
  return jh;
}

}  // namespace

bool anyEigenvalueOnImaginaryAxis(
    const std::vector<std::complex<double>>& eigenvalues, double tol,
    const Matrix& h) {
  const double floor_ =
      1e3 * std::numeric_limits<double>::epsilon() * h.normFrobenius();
  for (const auto& l : eigenvalues) {
    const double cut = std::max(tol * std::max(1.0, std::abs(l)), floor_);
    if (std::abs(l.real()) <= cut) return true;
  }
  return false;
}

bool isHamiltonian(const Matrix& h, double tol) {
  if (!h.isSquare() || h.rows() % 2 != 0) return false;
  Matrix jh = symplecticJTimes(h);
  return jh.isSymmetric(tol * std::max(1.0, jh.maxAbs()));
}

bool isSkewHamiltonian(const Matrix& w, double tol) {
  if (!w.isSquare() || w.rows() % 2 != 0) return false;
  Matrix jw = symplecticJTimes(w);
  return jw.isSkewSymmetric(tol * std::max(1.0, jw.maxAbs()));
}

Matrix makeHamiltonian(const Matrix& a, const Matrix& r, const Matrix& q) {
  const std::size_t n = a.rows();
  if (!a.isSquare() || r.rows() != n || r.cols() != n || q.rows() != n ||
      q.cols() != n)
    throw std::invalid_argument("makeHamiltonian: shape mismatch");
  Matrix h(2 * n, 2 * n);
  h.setBlock(0, 0, a);
  h.setBlock(0, n, r);
  h.setBlock(n, 0, q);
  h.setBlock(n, n, -1.0 * a.transposed());
  return h;
}

bool hasImaginaryAxisEigenvalue(const Matrix& h, double tol) {
  return anyEigenvalueOnImaginaryAxis(linalg::eigenvalues(h), tol, h);
}

}  // namespace shhpass::control
