#include "linalg/householder.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/blas.hpp"

namespace shhpass::linalg {

double makeReflector(const double* x, std::size_t len, double* v,
                     double& beta) {
  if (len == 0) {
    beta = 0.0;
    return 0.0;
  }
  v[0] = 1.0;
  // Scaled two-pass norm of the tail (overflow/underflow guard).
  double scale = 0.0;
  for (std::size_t i = 1; i < len; ++i)
    scale = std::max(scale, std::abs(x[i]));
  if (scale == 0.0) {
    beta = x[0];
    for (std::size_t i = 1; i < len; ++i) v[i] = 0.0;
    return 0.0;  // H = I
  }
  double sumsq = 0.0;
  for (std::size_t i = 1; i < len; ++i) {
    const double t = x[i] / scale;
    sumsq += t * t;
  }
  const double xnorm = scale * std::sqrt(sumsq);
  const double alpha = x[0];
  beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double denom = alpha - beta;  // never 0: |beta| >= |alpha|, signs differ
  for (std::size_t i = 1; i < len; ++i) v[i] = x[i] / denom;
  return tau;
}

Matrix buildCompactWyT(const Matrix& v, const std::vector<double>& tau) {
  const std::size_t k = v.cols();
  if (tau.size() != k)
    throw std::invalid_argument("buildCompactWyT: tau size mismatch");
  Matrix t(k, k);
  if (k == 0) return t;
  // Gram matrix V^T V once (one BLAS-3 product), then the dlarft
  // recurrence T(0:j, j) = -tau_j * T(0:j, 0:j) * (V^T V)(0:j, j).
  const Matrix gram = atb(v, v);
  for (std::size_t j = 0; j < k; ++j) {
    t(j, j) = tau[j];
    if (tau[j] == 0.0) continue;  // H_j = I: zero column keeps Q exact
    for (std::size_t i = 0; i < j; ++i) {
      double s = 0.0;
      for (std::size_t l = i; l < j; ++l) s += t(i, l) * gram(l, j);
      t(i, j) = -tau[j] * s;
    }
  }
  return t;
}

void applyBlockReflectorLeft(const Matrix& v, const Matrix& t,
                             bool transpose, Matrix& c) {
  if (c.rows() != v.rows())
    throw std::invalid_argument("applyBlockReflectorLeft: shape mismatch");
  if (v.cols() == 0) return;
  // W = op(T) (V^T C); C -= V W.
  Matrix w = atb(v, c);
  w = multiply(t, transpose, w, false);
  gemm(-1.0, v, false, w, false, 1.0, c);
}

}  // namespace shhpass::linalg
