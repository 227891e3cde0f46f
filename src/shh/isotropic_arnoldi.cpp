#include "shh/isotropic_arnoldi.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/blas.hpp"
#include "obs/trace.hpp"

namespace shhpass::shh {

using linalg::Matrix;

namespace {

// The reduction below exploits the structure the symplectic similarity
// preserves, cutting roughly a third of the dense work:
//
//   * W stays skew-Hamiltonian throughout, so its bottom-right block is
//     W22 = W11^T at every step. The kernels therefore never maintain
//     W22 in memory: the Householder passes skip its rows/columns
//     outright (nothing ever reads them), and the one transform that
//     genuinely couples the halves — the symplectic Givens — reads the
//     W22 values it needs through the invariant (snapshots of the
//     pre-rotation W11 row/column). The final scrub rebuilds W22 from
//     W11^T exactly as before.
//   * Z stays orthogonal symplectic, i.e. Z = [A B; -B A]: its bottom
//     half is an exact (bitwise — negation and mirrored updates commute
//     with rounding) mirror of the top half, so only rows 0..n-1 are
//     accumulated and the driver reconstructs the rest once at the end.

// Apply the symplectic Householder U = diag(P, P), P = I - beta v v^T
// acting on index range [k0, n) of each half, as a similarity
// W <- U^T W U, and accumulate the TOP HALF of Z <- Z U. v is indexed
// from k0 (v[0] corresponds to row k0). W22 rows/columns are skipped:
// diag(P, P) never mixes the halves, so the skipped entries feed nothing
// that is maintained. The accumulate/update loops run row-by-row so
// memory is streamed along the row-major rows; each s[j] still sums
// v[i] * w(row_i, j) over ascending i, bit-identical to a
// column-by-column formulation.
void applySymplecticHouseholder(Matrix& w, Matrix& z, std::size_t n,
                                std::size_t k0, const std::vector<double>& v,
                                double beta) {
  if (beta == 0.0) return;
  const std::size_t n2 = 2 * n;
  const std::size_t len = v.size();
  std::vector<double> s(n2);
  // Rows of the top half (full width: W11 and W12 are both maintained).
  {
    std::fill(s.begin(), s.end(), 0.0);
    for (std::size_t i = 0; i < len; ++i)
      linalg::axpy(v[i], &w(k0 + i, 0), n2, s.data());
    for (std::size_t j = 0; j < n2; ++j) s[j] *= beta;
    for (std::size_t i = 0; i < len; ++i)
      linalg::axpy(-v[i], s.data(), n2, &w(k0 + i, 0));
  }
  // Rows of the bottom half, left columns only (W21; the W22 part is not
  // maintained).
  {
    std::fill(s.begin(), s.begin() + n, 0.0);
    for (std::size_t i = 0; i < len; ++i)
      linalg::axpy(v[i], &w(n + k0 + i, 0), n, s.data());
    for (std::size_t j = 0; j < n; ++j) s[j] *= beta;
    for (std::size_t i = 0; i < len; ++i)
      linalg::axpy(-v[i], s.data(), n, &w(n + k0 + i, 0));
  }
  // Columns: left-half columns over all rows (W11 and W21), right-half
  // columns over the top rows only (W12; the W22 part is not maintained).
  // Each row dot goes through dotQuad (fixed four-accumulator reduction
  // order, per-machine AVX2 dispatch — deterministic, just not
  // bit-identical to a single-accumulator loop).
  const auto reflectRowSegment = [&v, beta, len](double* seg) {
    const double acc = linalg::dotQuad(v.data(), seg, len) * beta;
    linalg::axpy(-acc, v.data(), len, seg);
  };
  for (std::size_t i = 0; i < n2; ++i) reflectRowSegment(&w(i, k0));
  for (std::size_t i = 0; i < n; ++i) reflectRowSegment(&w(i, n + k0));
  // Z accumulation, top rows only (both half column ranges).
  for (std::size_t off : {std::size_t{0}, n}) {
    for (std::size_t i = 0; i < n; ++i) reflectRowSegment(&z(i, off + k0));
  }
}

// Apply the symplectic Givens rotation in the (i, n+i) plane as a
// similarity W <- G^T W G and accumulate the top half of Z <- Z G, where
// G mixes coordinates i and n+i: [c s; -s c]. This is the one transform
// that couples the halves, so the W22 values it consumes are read
// through the skew-Hamiltonian invariant W22 = W11^T (snapshots of the
// pre-rotation row/column i of W11).
void applySymplecticGivens(Matrix& w, Matrix& z, std::size_t n, std::size_t i,
                           double cc, double ss) {
  const std::size_t r1 = i, r2 = n + i;
  // Pre-rotation snapshots of W11 row i and column i (the W22 surrogate
  // values the two passes below need), and of the (i, i) corner pair.
  std::vector<double> w11RowI(n), w11ColI(n);
  for (std::size_t k = 0; k < n; ++k) w11RowI[k] = w(r1, k);
  for (std::size_t k = 0; k < n; ++k) w11ColI[k] = w(k, r1);
  const double w12ii = w(r1, r2);

  // Rows: G^T from the left. Left-half columns update both rows (W11 row
  // i and W21 row i); right-half columns update only the top row (W12;
  // the W22 row is not maintained), reading W22(i, c) = W11(c, i) from
  // the snapshot.
  for (std::size_t j = 0; j < n; ++j) {
    const double a = w(r1, j), b = w(r2, j);
    w(r1, j) = cc * a + ss * b;
    w(r2, j) = -ss * a + cc * b;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double a = w(r1, n + j), b = w11ColI[j];
    w(r1, n + j) = cc * a + ss * b;
  }

  // Columns: G from the right. Top rows update both columns (W11 col i
  // and W12 col i). Bottom rows update only the left column (W21; the
  // W22 column is not maintained), reading the post-row-pass
  // W22(k, i): untouched by the row pass for k != i, so it equals the
  // pre-rotation W11(i, k); for k == i it is the row-pass output
  // -ss * W12(i,i) + cc * W11(i,i).
  for (std::size_t k = 0; k < n; ++k) {
    const double a = w(k, r1), b = w(k, r2);
    w(k, r1) = cc * a + ss * b;
    w(k, r2) = -ss * a + cc * b;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double a = w(n + k, r1);
    const double b = (k == i) ? (-ss * w12ii + cc * w11RowI[i])
                              : w11RowI[k];
    w(n + k, r1) = cc * a + ss * b;
  }

  // Z accumulation, top rows only.
  for (std::size_t k = 0; k < n; ++k) {
    const double a = z(k, r1), b = z(k, r2);
    z(k, r1) = cc * a + ss * b;
    z(k, r2) = -ss * a + cc * b;
  }
}

// Householder vector for x (len >= 1): P x = alpha e1. Returns beta and v
// (v[0] = 1 convention folded into unnormalized v with explicit beta).
double householderVector(const std::vector<double>& x,
                         std::vector<double>& v) {
  const std::size_t len = x.size();
  v = x;
  double scale = 0.0;
  for (double t : x) scale = std::max(scale, std::abs(t));
  if (scale == 0.0) return 0.0;
  double sigma = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    v[i] /= scale;
    sigma += v[i] * v[i];
  }
  double alpha = std::sqrt(sigma);
  if (v[0] > 0) alpha = -alpha;
  v[0] -= alpha;
  double vv = 0.0;
  for (double t : v) vv += t * t;
  if (vv == 0.0) return 0.0;
  return 2.0 / vv;
}

}  // namespace

Matrix SkewHamiltonianTriangularization::ebar() const {
  const std::size_t n = half();
  return w.block(0, 0, n, n);
}

Matrix SkewHamiltonianTriangularization::theta() const {
  const std::size_t n = half();
  return w.block(0, n, n, n);
}

SkewHamiltonianTriangularization skewHamiltonianBlockTriangularize(
    const Matrix& wIn) {
  if (!wIn.isSquare() || wIn.rows() % 2 != 0)
    throw std::invalid_argument(
        "skewHamiltonianBlockTriangularize: need even square matrix");
  const std::size_t n = wIn.rows() / 2;
  obs::ObsSpan span("isotropic-arnoldi", "kernel", 2 * n >= 32);
  span.arg("n", static_cast<std::int64_t>(2 * n));
  SkewHamiltonianTriangularization out;
  out.w = wIn;
  out.z = Matrix::identity(2 * n);
  Matrix& w = out.w;
  Matrix& z = out.z;

  std::vector<double> x, v;
  for (std::size_t j = 0; j + 1 < n; ++j) {
    // (1) Householder on [j+1, n): compress W(n+j+1 .. 2n-1, j) onto its
    // first entry W(n+j+1, j).
    const std::size_t len = n - (j + 1);
    if (len > 1) {
      x.assign(len, 0.0);
      for (std::size_t i = 0; i < len; ++i) x[i] = w(n + j + 1 + i, j);
      const double beta = householderVector(x, v);
      applySymplecticHouseholder(w, z, n, j + 1, v, beta);
    }
    // (2) Symplectic Givens in plane (j+1, n+j+1): zero W(n+j+1, j)
    // against W(j+1, j).
    {
      const double a = w(j + 1, j), b = w(n + j + 1, j);
      const double r = std::hypot(a, b);
      if (r > 0.0 && std::abs(b) > 0.0)
        applySymplecticGivens(w, z, n, j + 1, a / r, b / r);
    }
    // (3) Householder on [j+1, n): compress W(j+1 .. n-1, j) onto W(j+1, j)
    // (makes the top-left block upper Hessenberg).
    if (len > 1) {
      x.assign(len, 0.0);
      for (std::size_t i = 0; i < len; ++i) x[i] = w(j + 1 + i, j);
      const double beta = householderVector(x, v);
      applySymplecticHouseholder(w, z, n, j + 1, v, beta);
    }
  }

  // Reconstruct the unmaintained halves. Z is orthogonal symplectic,
  // Z = [A B; -B A]: the bottom rows are exact mirrors of the top rows
  // (the accumulation above only ever touched rows 0..n-1).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t jj = 0; jj < n; ++jj) {
      z(n + i, jj) = -z(i, n + jj);
      z(n + i, n + jj) = z(i, jj);
    }

  // Scrub structural zeros: lower-left block and sub-Hessenberg entries of
  // the top-left block; enforce W22 = W11^T and skew-symmetry of Theta.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t jj = 0; jj < n; ++jj) w(n + i, jj) = 0.0;
  for (std::size_t i = 2; i < n; ++i)
    for (std::size_t jj = 0; jj + 1 < i; ++jj) w(i, jj) = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t jj = 0; jj < n; ++jj) w(n + i, n + jj) = w(jj, i);
  for (std::size_t i = 0; i < n; ++i) {
    w(i, n + i) = 0.0;
    for (std::size_t jj = i + 1; jj < n; ++jj) {
      const double t = 0.5 * (w(i, n + jj) - w(jj, n + i));
      w(i, n + jj) = t;
      w(jj, n + i) = -t;
    }
  }
  return out;
}

}  // namespace shhpass::shh
