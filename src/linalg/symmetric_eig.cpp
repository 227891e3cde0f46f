#include "linalg/symmetric_eig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace shhpass::linalg {
namespace {

double hypot2(double a, double b) { return std::hypot(a, b); }

// Householder reduction of a symmetric matrix to tridiagonal form
// (EISPACK tred2 lineage). On exit `a` holds the accumulated orthogonal
// transform when wantVectors, `d` the diagonal, `e` the subdiagonal.
void tridiagonalize(Matrix& a, std::vector<double>& d, std::vector<double>& e,
                    bool wantVectors) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = a(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0, h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = a(i - 1, j);
        a(i, j) = 0.0;
        a(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        a(j, i) = f;
        g = e[j] + a(j, j) * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += a(k, j) * d[k];
          e[k] += a(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k)
          a(k, j) -= (f * e[k] + g * d[k]);
        d[j] = a(i - 1, j);
        a(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (std::size_t i = 0; i < n - 1; ++i) {
    a(n - 1, i) = a(i, i);
    a(i, i) = 1.0;
    const double h = d[i + 1];
    if (wantVectors && h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = a(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += a(k, i + 1) * a(k, j);
        for (std::size_t k = 0; k <= i; ++k) a(k, j) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) a(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = a(n - 1, j);
    a(n - 1, j) = 0.0;
  }
  a(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal (d, e); accumulates
// rotations into `a` columns when wantVectors (EISPACK tql2 lineage).
void tql2(Matrix& a, std::vector<double>& d, std::vector<double>& e,
          bool wantVectors) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0, tst1 = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m < n) {
      if (std::abs(e[m]) <= eps * tst1) break;
      ++m;
    }
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > 50)
          throw std::runtime_error("SymmetricEig: QL failed to converge");
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = hypot2(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        double c = 1.0, c2 = c, c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = hypot2(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          if (wantVectors) {
            for (std::size_t k = 0; k < n; ++k) {
              h = a(k, i + 1);
              a(k, i + 1) = s * a(k, i) + c * h;
              a(k, i) = c * a(k, i) - s * h;
            }
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

}  // namespace

SymmetricEig::SymmetricEig(const Matrix& a, bool wantVectors) {
  if (!a.isSquare()) throw std::invalid_argument("SymmetricEig: not square");
  const std::size_t n = a.rows();
  w_.assign(n, 0.0);
  if (n == 0) return;
  Matrix work = a;
  // Enforce exact symmetry so round-off in the caller cannot leak in.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = 0.5 * (work(i, j) + work(j, i));
      work(i, j) = v;
      work(j, i) = v;
    }
  if (n == 1) {
    w_[0] = work(0, 0);
    v_ = Matrix::identity(1);
    return;
  }
  std::vector<double> e(n, 0.0);
  tridiagonalize(work, w_, e, wantVectors);
  tql2(work, w_, e, wantVectors);

  // Sort ascending, permuting eigenvector columns along.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t i, std::size_t j) { return w_[i] < w_[j]; });
  std::vector<double> ws(n);
  Matrix vs;
  if (wantVectors) vs = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    ws[k] = w_[idx[k]];
    if (wantVectors)
      for (std::size_t i = 0; i < n; ++i) vs(i, k) = work(i, idx[k]);
  }
  w_ = std::move(ws);
  if (wantVectors) v_ = std::move(vs);
}

double hermitianPartMinEigenvalue(const Matrix& re, const Matrix& im) {
  const std::size_t m = re.rows();
  if (m == 0 || !re.isSquare() || im.rows() != m || im.cols() != m)
    throw std::invalid_argument("hermitianPartMinEigenvalue: shape mismatch");
  Matrix emb(2 * m, 2 * m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      const double s = re(i, j) + re(j, i);
      const double k = im(i, j) - im(j, i);
      emb(i, j) = s;
      emb(m + i, m + j) = s;
      emb(i, m + j) = -k;
      emb(m + i, j) = k;
    }
  return SymmetricEig(emb, /*wantVectors=*/false).eigenvalues().front();
}

}  // namespace shhpass::linalg
