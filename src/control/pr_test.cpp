#include "control/pr_test.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "control/hamiltonian.hpp"
#include "control/sylvester.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"
#include "linalg/svd.hpp"
#include "linalg/symmetric_eig.hpp"
#include "obs/trace.hpp"

namespace shhpass::control {

using linalg::Matrix;

namespace {

// The resolvent runs in extended precision. Near the sampling threshold
// Re G(jw) can be 1e-12 of |G(jw)| (a shunt capacitor at the port makes
// G ~ 1/(jwC) at high w), while complex rounding errors scale with |x|,
// not with Re x: in double, the sampled lambda_min of badly scaled but
// passive ladders lands within roundoff of the -1e-8 cut.
using Real = long double;
using Complex = std::complex<Real>;

// num / den by Smith's algorithm (no intermediate overflow).
Complex divide(Complex num, Complex den) {
  const Real a = den.real(), b = den.imag();
  if (std::abs(a) >= std::abs(b)) {
    const Real r = b / a, s = a + b * r;
    return {(num.real() + num.imag() * r) / s,
            (num.imag() - num.real() * r) / s};
  }
  const Real r = a / b, s = a * r + b;
  return {(num.real() * r + num.imag()) / s,
          (num.imag() * r - num.real()) / s};
}

Real magnitude1(Complex z) { return std::abs(z.real()) + std::abs(z.imag()); }

// Solve the 2x2 complex system M x = r in place (r overwritten by x) with
// partial pivoting on the first column. M = jwI - T_kk is nonsingular
// whenever jw is not an eigenvalue of the block.
void solve2x2(Complex m00, Complex m01, Complex m10, Complex m11,
              Complex& r0, Complex& r1) {
  if (magnitude1(m10) > magnitude1(m00)) {
    std::swap(m00, m10);
    std::swap(m01, m11);
    std::swap(r0, r1);
  }
  const Complex l = divide(m10, m00);
  const Complex x1 = divide(r1 - l * r0, m11 - l * m01);
  r0 = divide(r0 - m01 * x1, m00);
  r1 = x1;
}

}  // namespace

PopovEvaluator::PopovEvaluator(const Matrix& a, const Matrix& b,
                               const Matrix& c, const Matrix& d)
    : t_(a), b_(b), c_(c), d_(d) {
  const std::size_t n = a.rows();
  if (n == 0) return;
  if (!a.isSquare() || b.rows() != n || c.cols() != n ||
      d.rows() != c.rows() || d.cols() != b.cols())
    throw std::invalid_argument("PopovEvaluator: shape mismatch");
  if (isQuasiTriangular(a)) return;
  linalg::RealSchurResult rs = linalg::realSchur(a);
  t_ = std::move(rs.t);
  b_ = linalg::atb(rs.q, b);
  c_ = c * rs.q;
}

std::vector<std::complex<double>> PopovEvaluator::eigenvalues() const {
  return linalg::quasiTriangularEigenvalues(t_);
}

void PopovEvaluator::transfer(double omega, Matrix& re, Matrix& im) const {
  re = d_;
  im = Matrix(re.rows(), re.cols());
  const std::size_t n = t_.rows(), m = b_.cols();
  if (n == 0) return;
  // X = (jwI - T)^{-1} B, row-major n x m with real and imaginary parts
  // stored apart, bottom-up over the diagonal blocks:
  //   (jwI - T_kk) X_k = B_k + sum_{j > k} T_kj X_j.
  std::vector<Real> xr(n * m), xi(n * m);
  std::size_t end = n;
  while (end > 0) {
    const bool pair = end >= 2 && t_(end - 1, end - 2) != 0.0;
    const std::size_t k = pair ? end - 2 : end - 1;
    for (std::size_t r = k; r < end; ++r) {
      const double* tr = t_.data() + r * n;
      for (std::size_t q = 0; q < m; ++q) {
        Real sr = b_(r, q), si = 0.0L;
        for (std::size_t j = end; j < n; ++j) {
          sr += tr[j] * xr[j * m + q];
          si += tr[j] * xi[j * m + q];
        }
        xr[r * m + q] = sr;
        xi[r * m + q] = si;
      }
    }
    for (std::size_t q = 0; q < m; ++q) {
      const std::size_t i0 = k * m + q;
      Complex x0(xr[i0], xi[i0]);
      if (pair) {
        const std::size_t i1 = i0 + m;
        Complex x1(xr[i1], xi[i1]);
        solve2x2(Complex(-t_(k, k), omega), -t_(k, k + 1), -t_(k + 1, k),
                 Complex(-t_(k + 1, k + 1), omega), x0, x1);
        xr[i1] = x1.real();
        xi[i1] = x1.imag();
      } else {
        x0 = divide(x0, Complex(-t_(k, k), omega));
      }
      xr[i0] = x0.real();
      xi[i0] = x0.imag();
    }
    end = k;
  }
  // G = D + C X.
  for (std::size_t r = 0; r < c_.rows(); ++r)
    for (std::size_t q = 0; q < m; ++q) {
      Real sr = 0.0L, si = 0.0L;
      for (std::size_t j = 0; j < n; ++j) {
        sr += c_(r, j) * xr[j * m + q];
        si += c_(r, j) * xi[j * m + q];
      }
      re(r, q) += static_cast<double>(sr);
      im(r, q) = static_cast<double>(si);
    }
}

double PopovEvaluator::minEigenvalue(double omega) const {
  Matrix gre, gim;
  transfer(omega, gre, gim);
  return linalg::hermitianPartMinEigenvalue(gre, gim);
}

PrTestResult testPositiveRealProper(const Matrix& a, const Matrix& b,
                                    const Matrix& c, const Matrix& d,
                                    double imagTol) {
  if (!d.isSquare())
    throw std::invalid_argument("testPositiveRealProper: D must be square");
  const std::size_t n = a.rows();
  PrTestResult res;

  // One Schur form serves the stability screen, G(0) and every frequency
  // sample. The proper part handed in by the pipeline is the reordered
  // Schur factor itself — exactly quasi-triangular — so there it costs
  // nothing: the eigenvalues are read off the diagonal blocks.
  const PopovEvaluator popov(a, b, c, d);
  const double normA = a.normFrobenius();
  res.stable = true;
  for (const auto& l : popov.eigenvalues())
    if (l.real() >= -1e-12 * std::max(1.0, normA)) {
      res.stable = false;
      break;
    }
  if (!res.stable) {
    res.positiveReal = false;
    return res;
  }

  Matrix r = d + d.transposed();
  // G(j inf) + G(j inf)^* = R must be PSD regardless of the certificate path.
  if (!linalg::isPositiveSemidefinite(r)) {
    res.positiveReal = false;
    return res;
  }
  if (n == 0) {
    res.positiveReal = true;  // static system, R >= 0 settles it
    return res;
  }

  // Decide singularity of R relative to the overall transfer-function
  // scale, not to R itself: a feedthrough of 1e-27 in a system whose
  // G(0) is O(1) is zero for all practical purposes, and inverting it
  // would poison the Hamiltonian certificate.
  Matrix g0, g0Imag;
  popov.transfer(0.0, g0, g0Imag);  // G(0) (A is Hurwitz here)
  const double gScale = std::max({1e-300, g0.maxAbs(), r.maxAbs()});
  linalg::SVD rsvd(r);
  const double sminR =
      rsvd.singularValues().empty() ? 0.0 : rsvd.singularValues().back();
  const bool rInvertible = sminR > 1e-10 * gScale;
  if (rInvertible) {
    // Hamiltonian certificate: M has an imaginary-axis eigenvalue iff
    // G(jw) + G(jw)^* is singular at some w. With no such eigenvalue, the
    // minimum eigenvalue never changes sign; R > 0 anchors the sign at
    // w = infinity.
    linalg::LU rlu(r);
    Matrix rinvBt = rlu.solve(b.transposed());   // R^{-1} B^T
    Matrix rinvC = rlu.solve(c);                 // R^{-1} C
    Matrix a11 = a - b * rinvC;
    Matrix a12 = -1.0 * (b * rinvBt);
    Matrix a21 = linalg::atb(c, rinvC);
    Matrix m = makeHamiltonian(a11, a12, a21);
    res.usedHamiltonian = true;
    obs::ObsSpan span("hamiltonian-eig", "kernel", n >= 32);
    res.positiveReal = !hasImaginaryAxisEigenvalue(m, imagTol);
    return res;
  }

  // R singular: fall back to a logarithmic frequency sweep.
  res.usedSampling = true;
  obs::ObsSpan span("popov-sampling", "kernel", n >= 32);
  const double scale = std::max(1.0, normA);
  double worst = popov.minEigenvalue(0.0);
  double worstW = 0.0;
  for (int k = -60; k <= 60; ++k) {
    const double w = scale * std::pow(10.0, k / 10.0);
    const double lmin = popov.minEigenvalue(w);
    if (lmin < worst) {
      worst = lmin;
      worstW = w;
    }
  }
  res.worstEigenvalue = worst;
  res.worstFrequency = worstW;
  const double tol = 1e-8 * std::max(1.0, d.maxAbs() + c.maxAbs());
  res.positiveReal = worst >= -tol;
  return res;
}

}  // namespace shhpass::control
