#include "linalg/schur.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/hessenberg.hpp"
#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace shhpass::linalg {
namespace {

// Francis double-shift QR on an upper Hessenberg matrix with accumulation
// (EISPACK hqr2 / JAMA lineage, eigenvector back-substitution omitted).
void hqr2(Matrix& h, Matrix& v, std::vector<double>& d,
          std::vector<double>& e, SchurReport* report = nullptr) {
  const int nn = static_cast<int>(h.rows());
  int n = nn - 1;
  const int low = 0, high = nn - 1;
  const double eps = std::numeric_limits<double>::epsilon();
  double exshift = 0.0;
  double p = 0, q = 0, r = 0, s = 0, z = 0, t, w, x, y;

  double norm = 0.0;
  for (int i = 0; i < nn; ++i)
    for (int j = std::max(i - 1, 0); j < nn; ++j) norm += std::abs(h(i, j));

  int iter = 0;
  long totalIter = 0;
  const long maxTotalIter = 60L * nn + 200;
  while (n >= low) {
    if (++totalIter > maxTotalIter) {
      if (report) report->iterations += totalIter;
      throw SchurConvergenceError(
          "schurUnblocked: QR iteration failed to converge");
    }

    // Look for a single small subdiagonal element.
    int l = n;
    while (l > low) {
      s = std::abs(h(l - 1, l - 1)) + std::abs(h(l, l));
      if (s == 0.0) s = norm;
      if (std::abs(h(l, l - 1)) < eps * s) break;
      --l;
    }

    if (l == n) {
      // One root found.
      h(n, n) += exshift;
      d[n] = h(n, n);
      e[n] = 0.0;
      if (l > low) h(n, n - 1) = 0.0;
      --n;
      iter = 0;
    } else if (l == n - 1) {
      // Two roots found.
      w = h(n, n - 1) * h(n - 1, n);
      p = (h(n - 1, n - 1) - h(n, n)) / 2.0;
      q = p * p + w;
      z = std::sqrt(std::abs(q));
      h(n, n) += exshift;
      h(n - 1, n - 1) += exshift;
      x = h(n, n);

      if (q >= 0) {
        // Real pair: rotate the 2x2 block onto the diagonal.
        z = (p >= 0) ? p + z : p - z;
        d[n - 1] = x + z;
        d[n] = d[n - 1];
        if (z != 0.0) d[n] = x - w / z;
        e[n - 1] = 0.0;
        e[n] = 0.0;
        x = h(n, n - 1);
        s = std::abs(x) + std::abs(z);
        p = x / s;
        q = z / s;
        r = std::sqrt(p * p + q * q);
        p /= r;
        q /= r;
        for (int j = n - 1; j < nn; ++j) {
          z = h(n - 1, j);
          h(n - 1, j) = q * z + p * h(n, j);
          h(n, j) = q * h(n, j) - p * z;
        }
        for (int i = 0; i <= n; ++i) {
          z = h(i, n - 1);
          h(i, n - 1) = q * z + p * h(i, n);
          h(i, n) = q * h(i, n) - p * z;
        }
        for (int i = low; i <= high; ++i) {
          z = v(i, n - 1);
          v(i, n - 1) = q * z + p * v(i, n);
          v(i, n) = q * v(i, n) - p * z;
        }
        h(n, n - 1) = 0.0;
      } else {
        // Complex pair: leave the (standardizable) 2x2 block in place.
        d[n - 1] = x + p;
        d[n] = x + p;
        e[n - 1] = z;
        e[n] = -z;
      }
      // Either way the pair has converged: the subdiagonal entry the
      // deflation test judged negligible (under the exshift-ed
      // diagonals) is zeroed NOW. Historically it was left behind,
      // which could leave an eps-level entry between two genuine 2x2
      // blocks — overlapping blocks that desynced every downstream
      // block scan until repairQuasiTriangularStructure patched them
      // post hoc.
      if (l > low) h(l, l - 1) = 0.0;
      n -= 2;
      iter = 0;
    } else {
      // No convergence yet: form shift.
      x = h(n, n);
      y = 0.0;
      w = 0.0;
      if (l < n) {
        y = h(n - 1, n - 1);
        w = h(n, n - 1) * h(n - 1, n);
      }
      // Wilkinson's original ad hoc shift.
      if (iter == 10) {
        exshift += x;
        for (int i = low; i <= n; ++i) h(i, i) -= x;
        s = std::abs(h(n, n - 1)) + std::abs(h(n - 1, n - 2));
        x = y = 0.75 * s;
        w = -0.4375 * s * s;
      }
      // MATLAB's ad hoc shift.
      if (iter == 30) {
        s = (y - x) / 2.0;
        s = s * s + w;
        if (s > 0) {
          s = std::sqrt(s);
          if (y < x) s = -s;
          s = x - w / ((y - x) / 2.0 + s);
          for (int i = low; i <= n; ++i) h(i, i) -= s;
          exshift += s;
          x = y = w = 0.964;
        }
      }
      ++iter;

      // Look for two consecutive small subdiagonal elements.
      int m = n - 2;
      while (m >= l) {
        z = h(m, m);
        r = x - z;
        s = y - z;
        p = (r * s - w) / h(m + 1, m) + h(m, m + 1);
        q = h(m + 1, m + 1) - z - r - s;
        r = h(m + 2, m + 1);
        s = std::abs(p) + std::abs(q) + std::abs(r);
        p /= s;
        q /= s;
        r /= s;
        if (m == l) break;
        if (std::abs(h(m, m - 1)) * (std::abs(q) + std::abs(r)) <
            eps * (std::abs(p) * (std::abs(h(m - 1, m - 1)) + std::abs(z) +
                                  std::abs(h(m + 1, m + 1)))))
          break;
        --m;
      }
      for (int i = m + 2; i <= n; ++i) {
        h(i, i - 2) = 0.0;
        if (i > m + 2) h(i, i - 3) = 0.0;
      }

      // Double QR step on rows l..n, columns m..n.
      for (int k = m; k <= n - 1; ++k) {
        const bool notlast = (k != n - 1);
        if (k != m) {
          p = h(k, k - 1);
          q = h(k + 1, k - 1);
          r = notlast ? h(k + 2, k - 1) : 0.0;
          x = std::abs(p) + std::abs(q) + std::abs(r);
          if (x == 0.0) continue;
          p /= x;
          q /= x;
          r /= x;
        }
        s = std::sqrt(p * p + q * q + r * r);
        if (p < 0) s = -s;
        if (s != 0) {
          if (k != m)
            h(k, k - 1) = -s * x;
          else if (l != m)
            h(k, k - 1) = -h(k, k - 1);
          p += s;
          x = p / s;
          y = q / s;
          z = r / s;
          q /= p;
          r /= p;

          // Row modification.
          for (int j = k; j < nn; ++j) {
            t = h(k, j) + q * h(k + 1, j);
            if (notlast) {
              t += r * h(k + 2, j);
              h(k + 2, j) -= t * z;
            }
            h(k, j) -= t * x;
            h(k + 1, j) -= t * y;
          }
          // Column modification.
          for (int i = 0; i <= std::min(n, k + 3); ++i) {
            t = x * h(i, k) + y * h(i, k + 1);
            if (notlast) {
              t += z * h(i, k + 2);
              h(i, k + 2) -= t * r;
            }
            h(i, k) -= t;
            h(i, k + 1) -= t * q;
          }
          // Accumulate transformations.
          for (int i = low; i <= high; ++i) {
            t = x * v(i, k) + y * v(i, k + 1);
            if (notlast) {
              t += z * v(i, k + 2);
              v(i, k + 2) -= t * r;
            }
            v(i, k) -= t;
            v(i, k + 1) -= t * q;
          }
        }
      }
    }
  }
  if (report) report->iterations += totalIter;
}

// Cleanup shared by both Schur paths: clean below-quasidiagonal entries
// left by deflation bookkeeping, zero the subdiagonal entries the
// iteration declared negligible so the result is exactly
// quasi-triangular, certify the block structure, and standardize every
// remaining 2x2 block (shared dlanv2 kernel): complex pairs get equal
// diagonals and opposite-sign off-diagonals; blocks whose eigenvalues
// turn out real are split into 1x1 blocks. Downstream block logic
// (reordering, invariant-subspace extraction) relies on this form.
void finalizeSchurForm(RealSchurResult& res) {
  const std::size_t n = res.t.rows();
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j + 1 < i; ++j) res.t(i, j) = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double sub = std::abs(res.t(i + 1, i));
    if (sub != 0.0 &&
        sub <= eps * (std::abs(res.t(i, i)) + std::abs(res.t(i + 1, i + 1))))
      res.t(i + 1, i) = 0.0;
  }
  res.report.structureRepairs += repairQuasiTriangularStructure(res.t);
  standardizeQuasiTriangular(res.t, res.q);
  // Extract eigenvalues from the standardized quasi-triangular factor so
  // (t, eigenvalues) are exactly consistent.
  res.eigenvalues = quasiTriangularEigenvalues(res.t);
}

}  // namespace

RealSchurResult schurUnblocked(const Matrix& a) {
  if (!a.isSquare())
    throw std::invalid_argument("schurUnblocked: not square");
  const std::size_t n = a.rows();
  RealSchurResult res;
  if (n == 0) {
    res.t = Matrix();
    res.q = Matrix();
    return res;
  }
  HessenbergResult hes = hessenberg(a);
  res.t = std::move(hes.h);
  res.q = std::move(hes.q);
  std::vector<double> d(n, 0.0), e(n, 0.0);
  hqr2(res.t, res.q, d, e, &res.report);
  finalizeSchurForm(res);
  return res;
}

RealSchurResult realSchur(const Matrix& a) {
  if (!a.isSquare()) throw std::invalid_argument("realSchur: not square");
  const std::size_t n = a.rows();
  obs::counterAdd(obs::Counter::SchurCalls);
  obs::ObsSpan span("schur", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  if (n < kSchurCrossover) return schurUnblocked(a);
  RealSchurResult res;
  HessenbergResult hes = hessenberg(a);
  res.t = std::move(hes.h);
  res.q = std::move(hes.q);
  multishiftSchurHessenberg(res.t, res.q, &res.report);
  finalizeSchurForm(res);
  return res;
}

std::vector<std::complex<double>> eigenvalues(const Matrix& a) {
  if (!a.isSquare()) throw std::invalid_argument("eigenvalues: not square");
  if (a.rows() < kSchurCrossover) return schurUnblocked(a).eigenvalues;
  // Values-only path: run the same Hessenberg + multishift iteration on
  // the same H factor, but never accumulate the orthogonal factor (a 0x0
  // q skips every accumulation loop and flush gemm). The T iterates are
  // bit-identical to realSchur's, so the eigenvalues agree exactly; only
  // the unused Q work is saved.
  RealSchurResult res;
  HessenbergResult hes = hessenberg(a, /*wantQ=*/false);
  res.t = std::move(hes.h);
  multishiftSchurHessenberg(res.t, res.q, &res.report);
  finalizeSchurForm(res);
  return res.eigenvalues;
}

std::size_t repairQuasiTriangularStructure(Matrix& t) {
  const std::size_t n = t.rows();
  std::size_t repairs = 0;
  // Only entries negligible at the global scale may be zeroed: removing
  // one is a backward-stable perturbation of size <= tol. Overlapping
  // blocks whose subdiagonals are BOTH significant mean the input is not
  // a real Schur form at all — refuse rather than silently destroy an
  // O(1) entry (the certified-residual contract of the reordering layer
  // would otherwise report clean() on a corrupted spectrum).
  const double tol =
      16.0 * std::numeric_limits<double>::epsilon() * t.maxAbs();
  bool again = n >= 3;
  while (again) {
    again = false;
    for (std::size_t i = 0; i + 2 < n; ++i) {
      if (t(i + 1, i) != 0.0 && t(i + 2, i + 1) != 0.0) {
        const double lo =
            std::min(std::abs(t(i + 1, i)), std::abs(t(i + 2, i + 1)));
        if (lo > tol)
          throw std::invalid_argument(
              "repairQuasiTriangularStructure: overlapping 2x2 blocks with "
              "non-negligible subdiagonals (input is not quasi-triangular)");
        if (std::abs(t(i + 1, i)) <= std::abs(t(i + 2, i + 1)))
          t(i + 1, i) = 0.0;
        else
          t(i + 2, i + 1) = 0.0;
        ++repairs;
        again = true;
      }
    }
  }
  return repairs;
}

std::vector<std::complex<double>> quasiTriangularEigenvalues(const Matrix& t) {
  const std::size_t n = t.rows();
  std::vector<std::complex<double>> eig;
  eig.reserve(n);
  std::size_t i = 0;
  while (i < n) {
    if (i + 1 < n && t(i + 1, i) != 0.0) {
      const double a11 = t(i, i), a12 = t(i, i + 1);
      const double a21 = t(i + 1, i), a22 = t(i + 1, i + 1);
      const double tr = a11 + a22;
      const double det = a11 * a22 - a12 * a21;
      const double disc = tr * tr / 4.0 - det;
      if (disc >= 0.0) {
        const double sq = std::sqrt(disc);
        eig.emplace_back(tr / 2.0 + sq, 0.0);
        eig.emplace_back(tr / 2.0 - sq, 0.0);
      } else {
        const double sq = std::sqrt(-disc);
        eig.emplace_back(tr / 2.0, sq);
        eig.emplace_back(tr / 2.0, -sq);
      }
      i += 2;
    } else {
      eig.emplace_back(t(i, i), 0.0);
      i += 1;
    }
  }
  return eig;
}

}  // namespace shhpass::linalg
