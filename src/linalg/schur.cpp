#include "linalg/schur.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/hessenberg.hpp"
#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"
#include "obs/trace.hpp"

namespace shhpass::linalg {
namespace {

// Cleanup after either QR iteration: clean below-quasidiagonal entries
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

// The one Schur driver behind every entry point: Hessenberg reduction,
// then either the Francis iteration on the whole matrix or the
// multishift iteration, then the shared cleanup. With wantQ = false the
// orthogonal factor is never formed (a 0x0 q skips every accumulation
// loop and flush gemm); the T iterates never read Q, so T and the
// eigenvalues are bit-identical to the wantQ = true run.
RealSchurResult schurDriver(const Matrix& a, bool multishift, bool wantQ) {
  RealSchurResult res;
  const std::size_t n = a.rows();
  if (n == 0) return res;
  HessenbergResult hes = hessenberg(a, wantQ);
  res.t = std::move(hes.h);
  res.q = std::move(hes.q);
  if (multishift)
    multishiftSchurHessenberg(res.t, res.q, &res.report);
  else
    francisSchurWindow(res.t, res.q, 0, n - 1, &res.report);
  finalizeSchurForm(res);
  return res;
}

}  // namespace

RealSchurResult schurUnblocked(const Matrix& a) {
  if (!a.isSquare())
    throw std::invalid_argument("schurUnblocked: not square");
  return schurDriver(a, /*multishift=*/false, /*wantQ=*/true);
}

RealSchurResult realSchur(const Matrix& a) {
  if (!a.isSquare()) throw std::invalid_argument("realSchur: not square");
  const std::size_t n = a.rows();
  obs::ObsSpan span("schur", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  return schurDriver(a, n >= kSchurCrossover, /*wantQ=*/true);
}

std::vector<std::complex<double>> eigenvalues(const Matrix& a) {
  if (!a.isSquare()) throw std::invalid_argument("eigenvalues: not square");
  const std::size_t n = a.rows();
  obs::ObsSpan span("eigenvalues", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  return schurDriver(a, n >= kSchurCrossover, /*wantQ=*/false).eigenvalues;
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
