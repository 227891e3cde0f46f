#include "baselines/qz.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/schur.hpp"

namespace shhpass::linalg {
namespace {

// Deterministic trial shifts, scaled by the pencil magnitude. A regular
// pencil has det(A - sE) != 0 for all but finitely many s, so some trial
// succeeds; failure on all of them flags a (near-)singular pencil.
std::vector<double> trialShifts(const Matrix& e, const Matrix& a) {
  const double scale =
      std::max(1e-300, a.normFrobenius() / std::max(1.0, e.normFrobenius()));
  return {0.0,          scale,        -scale,       0.5 * scale,
          -0.5 * scale, 2.718 * scale, -3.141 * scale, 7.389 * scale};
}

/// A trial shift sigma with A - sigma E comfortably nonsingular (not a
/// barely invertible one), and that matrix's LU factors.
struct RegularShift {
  double sigma;
  LU lu;
};

/// The first trial shift whose LU passes the 1e-10 pivot test, or
/// nullopt when every trial fails (a (near-)singular pencil).
std::optional<RegularShift> findRegularShift(const Matrix& e,
                                             const Matrix& a) {
  for (double sigma : trialShifts(e, a)) {
    LU lu(a - sigma * e);
    // lint-ok: rank-tol-literal  the baseline's own shift cutoff
    if (!lu.isSingular(1e-10)) return RegularShift{sigma, std::move(lu)};
  }
  return std::nullopt;
}

}  // namespace

GeneralizedEigenvalues generalizedEigenvalues(const Matrix& e, const Matrix& a,
                                              double infTol) {
  if (!e.isSquare() || !a.isSquare() || e.rows() != a.rows())
    throw std::invalid_argument("generalizedEigenvalues: shape mismatch");
  const std::size_t n = e.rows();
  GeneralizedEigenvalues out;
  if (n == 0) return out;
  const std::optional<RegularShift> shift = findRegularShift(e, a);
  if (!shift)
    throw std::runtime_error(
        "generalizedEigenvalues: pencil is singular (no regular shift found)");
  const double sigma = shift->sigma;
  std::vector<std::complex<double>> mu = eigenvalues(shift->lu.solve(e));
  double muMax = 0.0;
  for (const auto& v : mu) muMax = std::max(muMax, std::abs(v));
  const double cut = infTol * std::max(muMax, 1e-300);
  out.shiftUsed = sigma;
  for (const auto& v : mu) {
    if (std::abs(v) <= cut) {
      ++out.infiniteCount;
    } else {
      out.finite.push_back(sigma + 1.0 / v);
    }
  }
  // Real pencil: force conjugate symmetry lost to round-off.
  for (auto& lam : out.finite)
    if (std::abs(lam.imag()) < 1e-10 * std::max(1.0, std::abs(lam.real())))
      lam = {lam.real(), 0.0};
  return out;
}

}  // namespace shhpass::linalg
