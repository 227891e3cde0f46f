#include "shh/symplectic.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/blas.hpp"

namespace shhpass::shh {

using linalg::Matrix;

Matrix applyJ(const Matrix& x) {
  if (x.rows() % 2 != 0) throw std::invalid_argument("applyJ: odd row count");
  const std::size_t n = x.rows() / 2;
  Matrix y(x.rows(), x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j)
    for (std::size_t i = 0; i < n; ++i) {
      y(i, j) = x(n + i, j);    // top of J picks the bottom half
      y(n + i, j) = -x(i, j);   // bottom of J is -I on the top half
    }
  return y;
}

bool isOrthogonalSymplectic(const Matrix& s, double tol) {
  if (!s.isSquare() || s.rows() % 2 != 0) return false;
  const std::size_t n2 = s.rows();
  Matrix sts = linalg::atb(s, s);
  if (!sts.approxEqual(Matrix::identity(n2), tol)) return false;
  return isSymplectic(s, tol);
}

bool isSymplectic(const Matrix& s, double tol) {
  if (!s.isSquare() || s.rows() % 2 != 0) return false;
  Matrix j = Matrix::symplecticJ(s.rows() / 2);
  Matrix stjs = linalg::atb(s, j * s);
  return stjs.approxEqual(j, tol * std::max(1.0, s.maxAbs() * s.maxAbs()));
}

Matrix lagrangianCompletion(const Matrix& x1, const Matrix& x2) {
  const std::size_t n = x1.rows();
  if (x2.rows() != n || x1.cols() != n || x2.cols() != n)
    throw std::invalid_argument("lagrangianCompletion: need n x n blocks");
  Matrix z(2 * n, 2 * n);
  z.setBlock(0, 0, x1);
  z.setBlock(n, 0, x2);
  z.setBlock(0, n, -1.0 * x2);
  z.setBlock(n, n, x1);
  return z;
}

}  // namespace shhpass::shh
