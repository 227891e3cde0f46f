#include "core/proper_part.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "shh/stable_subspace.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

/// (Eq. 21) Normalize E3 to the identity. removeNondynamicModes hands
/// over E3 = diag(S, S) with S diagonal and positive, so the symmetric
/// scaling Z_L = Z_R = diag(S^-1/2, S^-1/2) gives Z_L E3 Z_R = I; it
/// commutes with J, so A4 = Z_L A3 Z_R stays Hamiltonian and
/// B4 = Z_L B3 = J C4^T. Sets out.a4 and out.condNormalizer, records the
/// rank decision on S into `rankReport`, and returns C4 = C3 Z_R.
Matrix normalizeE3(const shh::ShhRealization& s3, double rankTol,
                   linalg::RankReport* rankReport, ProperPartResult& out) {
  const std::size_t n2 = s3.order();
  const std::size_t np = n2 / 2;
  const Matrix& e3 = s3.e;
  bool normalForm = true;
  for (std::size_t i = 0; i < n2; ++i)
    for (std::size_t j = 0; j < n2; ++j)
      normalForm = normalForm && (i == j || e3(i, j) == 0.0);
  std::vector<double> s(np);
  for (std::size_t i = 0; i < np; ++i) {
    s[i] = e3(i, i);
    normalForm = normalForm && s[i] >= 0.0 && e3(np + i, np + i) == s[i];
  }
  if (!normalForm)
    throw std::invalid_argument(
        "extractProperPart: E3 is not in the normal form diag(S, S)");

  std::vector<double> sorted = s;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double smax = sorted.empty() ? 0.0 : sorted.front();
  const double smin = sorted.empty() ? 0.0 : sorted.back();
  // lint-ok: rank-tol-literal  ROADMAP item 1 step 2
  if (smin <= 1e-12 * smax)
    throw std::runtime_error(
        "extractProperPart: E3 numerically singular (S not invertible)");
  // Normalizer conditioning / rank certificate on S, the diagonal the
  // scaling inverts.
  out.condNormalizer = smax / smin;
  linalg::rankFromSingularValues(sorted, np, np, rankTol, rankReport);

  // d = diag(S^-1/2, S^-1/2); A4(i, j) = A3(i, j) d_i d_j (the product
  // d_i d_j is formed first so the symmetric blocks stay exactly
  // symmetric), C4 = C3 diag(d).
  std::vector<double> d(n2);
  for (std::size_t i = 0; i < np; ++i)
    d[i] = d[np + i] = 1.0 / std::sqrt(s[i]);
  out.a4 = s3.a;
  for (std::size_t i = 0; i < n2; ++i)
    for (std::size_t j = 0; j < n2; ++j) out.a4(i, j) *= d[i] * d[j];
  Matrix c4 = s3.c;
  for (std::size_t i = 0; i < c4.rows(); ++i)
    for (std::size_t j = 0; j < n2; ++j) c4(i, j) *= d[j];
  return c4;
}

}  // namespace

ProperPartResult extractProperPart(const shh::ShhRealization& s3,
                                   double imagTol, double rankTol,
                                   linalg::RankReport* rankReport) {
  ProperPartResult out;
  const std::size_t n2 = s3.order();
  const std::size_t m = s3.ports();
  if (n2 == 0) {
    // Purely static Phi: proper part is just the feedthrough.
    out.ok = true;
    out.lambda = Matrix();
    out.b1 = Matrix(0, m);
    out.c1 = Matrix(m, 0);
    out.dHalf = 0.5 * s3.d;
    return out;
  }
  const std::size_t np = n2 / 2;

  const Matrix c4 = normalizeE3(s3, rankTol, rankReport, out);

  // (Eqs. 22-23) Split the Hamiltonian spectrum and decouple.
  shh::HamiltonianDecoupling dec =
      shh::decoupleHamiltonian(out.a4, imagTol, &out.schur, &out.reorder);

  if (!dec.ok) return out;  // imaginary-axis eigenvalues: cannot split

  // C5 = C4 Z2 = (C4 Z1) [I Y; 0 I] = [C41, C41 Y + C42] with
  // [C41, C42] = C4 Z1.
  const Matrix c4z1 = c4 * dec.z1;
  Matrix c51 = c4z1.block(0, 0, m, np);
  Matrix c52 = c4z1.block(0, np, m, np);
  linalg::gemm(1.0, c51, false, dec.y, false, 1.0, c52);
  // B5 = J C5^T = [C52^T; -C51^T]: the stable part reads B1 = C52^T.
  out.lambda = dec.lambda;
  out.c1 = c51;
  out.b1 = c52.transposed();
  out.dHalf = 0.5 * s3.d;
  out.ok = true;
  return out;
}

}  // namespace shhpass::core
