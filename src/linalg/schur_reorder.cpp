#include "linalg/schur_reorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace shhpass::linalg {
namespace {

double sign1(double x) { return x >= 0.0 ? 1.0 : -1.0; }

// Plane rotation [cs sn; -sn cs] [f; g] = [r; 0] (dlartg).
void givens(double f, double g, double& cs, double& sn) {
  if (g == 0.0) {
    cs = 1.0;
    sn = 0.0;
  } else if (f == 0.0) {
    cs = 0.0;
    sn = 1.0;
  } else {
    const double r = std::hypot(f, g);
    cs = f / r;
    sn = g / r;
  }
}

// dlanv2: Schur factorization of a real 2x2 in standard form,
//   [a b; c d] = R [a' b'; c' d'] R^T,   R = [cs -sn; sn cs],
// where afterwards either c' = 0 (two real eigenvalues) or a' = d' and
// b'*c' < 0 (standardized complex-conjugate pair).
struct Lanv2 {
  double a, b, c, d;  // standardized entries
  double cs, sn;      // rotation
};

Lanv2 lanv2(double a, double b, double c, double d) {
  const double eps = std::numeric_limits<double>::epsilon();
  double cs, sn;
  if (c == 0.0) {
    cs = 1.0;
    sn = 0.0;
  } else if (b == 0.0) {
    // Swap rows and columns.
    cs = 0.0;
    sn = 1.0;
    std::swap(a, d);
    b = -c;
    c = 0.0;
  } else if (a - d == 0.0 && sign1(b) != sign1(c)) {
    cs = 1.0;
    sn = 0.0;
  } else {
    double temp = a - d;
    double p = 0.5 * temp;
    const double bcmax = std::max(std::abs(b), std::abs(c));
    const double bcmis = std::min(std::abs(b), std::abs(c)) * sign1(b) *
                         sign1(c);
    const double scale = std::max(std::abs(p), bcmax);
    double z = (p / scale) * p + (bcmax / scale) * bcmis;
    if (z >= 4.0 * eps) {
      // Real eigenvalues: compute a (rank-one modification).
      z = p + std::copysign(std::sqrt(scale) * std::sqrt(z), p);
      a = d + z;
      d -= (bcmax / z) * bcmis;
      const double tau = std::hypot(c, z);
      cs = z / tau;
      sn = c / tau;
      b -= c;
      c = 0.0;
    } else {
      // Complex eigenvalues, or real almost-equal eigenvalues: make the
      // diagonal entries equal first.
      const double sigma = b + c;
      double tau = std::hypot(sigma, temp);
      cs = std::sqrt(0.5 * (1.0 + std::abs(sigma) / tau));
      sn = -(p / (tau * cs)) * sign1(sigma);
      // [aa bb; cc dd] = [a b; c d] [cs -sn; sn cs]
      const double aa = a * cs + b * sn, bb = -a * sn + b * cs;
      const double cc = c * cs + d * sn, dd = -c * sn + d * cs;
      // [a b; c d] = [cs sn; -sn cs] [aa bb; cc dd]
      a = aa * cs + cc * sn;
      b = bb * cs + dd * sn;
      c = -aa * sn + cc * cs;
      d = -bb * sn + dd * cs;
      temp = 0.5 * (a + d);
      a = temp;
      d = temp;
      if (c != 0.0) {
        if (b != 0.0) {
          if (sign1(b) == sign1(c)) {
            // Real eigenvalues after all: reduce to upper triangular.
            const double sab = std::sqrt(std::abs(b));
            const double sac = std::sqrt(std::abs(c));
            p = std::copysign(sab * sac, c);
            tau = 1.0 / std::sqrt(std::abs(b + c));
            a = temp + p;
            d = temp - p;
            b -= c;
            c = 0.0;
            const double cs1 = sab * tau, sn1 = sac * tau;
            temp = cs * cs1 - sn * sn1;
            sn = cs * sn1 + sn * cs1;
            cs = temp;
          }
        } else {
          b = -c;
          c = 0.0;
          temp = cs;
          cs = -sn;
          sn = temp;
        }
      }
    }
  }
  return Lanv2{a, b, c, d, cs, sn};
}

// Apply the similarity T <- R^T T R, Q <- Q R with the plane rotation
// R = [cs -sn; sn cs] acting on coordinates j, j+1 of a QUASI-TRIANGULAR
// t: row updates start at column j (entries to the left are exact zeros
// that R cannot perturb) and column updates stop at row j+1 (entries
// below the block are exact zeros likewise) — the same values the
// full-range update would produce, at half the work. Q has no structure
// and gets full-height column updates.
// `qTransposed` selects how the accumulation matrix is stored: false
// means q IS Q (columns j, j+1 are rotated, a stride-n access pattern);
// true means q holds Q^T (rows j, j+1 are rotated, streaming through
// contiguous memory — what reorderSchur uses for its thousands of
// swaps). The per-element arithmetic is identical either way, so the
// two layouts produce bit-identical values.
void applyRotation(Matrix& t, Matrix& q, std::size_t j, double cs, double sn,
                   bool qTransposed = false) {
  const std::size_t n = t.rows();
  for (std::size_t col = j; col < n; ++col) {
    const double x = t(j, col), y = t(j + 1, col);
    t(j, col) = cs * x + sn * y;
    t(j + 1, col) = -sn * x + cs * y;
  }
  for (std::size_t row = 0; row < j + 2; ++row) {
    const double x = t(row, j), y = t(row, j + 1);
    t(row, j) = cs * x + sn * y;
    t(row, j + 1) = -sn * x + cs * y;
  }
  if (qTransposed) {
    planeRot(cs, sn, &q(j, 0), &q(j + 1, 0), q.cols());
  } else {
    for (std::size_t row = 0; row < q.rows(); ++row) {
      const double qx = q(row, j), qy = q(row, j + 1);
      q(row, j) = cs * qx + sn * qy;
      q(row, j + 1) = -sn * qx + cs * qy;
    }
  }
}

// Apply an accepted w x w window transform G (w <= 4) in place:
// T <- (G^T T G) restricted to the quasi-triangular profile, Q <- Q G.
// Left update first, then the column updates on the already-left-updated
// rows — the same sequencing the historical block-copy implementation
// used, so accepted swaps produce identical values without materializing
// any n-sized temporaries.
void applyWindowSimilarity(Matrix& t, Matrix& q, const Matrix& g,
                           std::size_t j, bool qTransposed = false) {
  const std::size_t w = g.rows(), n = t.rows();
  // Local row-major copy of G: every element is touched ~n times below,
  // and a flat stack array spares the operator() index math per read.
  double gl[16];
  for (std::size_t r = 0; r < w; ++r)
    for (std::size_t c = 0; c < w; ++c) gl[r * 4 + c] = g(r, c);
  double tmp[4], x[4];
  // Rows j..j+w-1 of T from column j rightward: T_rows <- G^T T_rows.
  // The w source rows are streamed through row pointers, each window
  // column read once into x; the k-ascending sum is unchanged.
  {
    double* tr[4];
    for (std::size_t k = 0; k < w; ++k) tr[k] = &t(j + k, 0);
    for (std::size_t c = j; c < n; ++c) {
      for (std::size_t k = 0; k < w; ++k) x[k] = tr[k][c];
      for (std::size_t r = 0; r < w; ++r) {
        double s = 0.0;
        for (std::size_t k = 0; k < w; ++k) s += gl[k * 4 + r] * x[k];
        tmp[r] = s;
      }
      for (std::size_t r = 0; r < w; ++r) tr[r][c] = tmp[r];
    }
  }
  // Columns j..j+w-1 of T down to row j+w-1: T_cols <- T_cols G. The w
  // window entries of row r are contiguous; read once, write in place.
  for (std::size_t r = 0; r < j + w; ++r) {
    double* pr = &t(r, j);
    for (std::size_t k = 0; k < w; ++k) x[k] = pr[k];
    for (std::size_t c = 0; c < w; ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < w; ++k) s += x[k] * gl[k * 4 + c];
      pr[c] = s;
    }
  }
  // Q columns j..j+w-1, full height (as rows of Q^T when transposed;
  // same multiply/add sequence per element, so bit-identical results).
  if (qTransposed) {
    const std::size_t qn = q.cols();
    double* qr[4];
    for (std::size_t k = 0; k < w; ++k) qr[k] = &q(j + k, 0);
    for (std::size_t i = 0; i < qn; ++i) {
      for (std::size_t k = 0; k < w; ++k) x[k] = qr[k][i];
      for (std::size_t c = 0; c < w; ++c) {
        double s = 0.0;
        for (std::size_t k = 0; k < w; ++k) s += x[k] * gl[k * 4 + c];
        qr[c][i] = s;
      }
    }
  } else {
    for (std::size_t r = 0; r < n; ++r) {
      double* pr = &q(r, j);
      for (std::size_t k = 0; k < w; ++k) x[k] = pr[k];
      for (std::size_t c = 0; c < w; ++c) {
        double s = 0.0;
        for (std::size_t k = 0; k < w; ++k) s += x[k] * gl[k * 4 + c];
        pr[c] = s;
      }
    }
  }
}

// Solve the small Sylvester equation A X - X B = C (A p x p, B q x q,
// p, q <= 2) by the Kronecker-product linear system, on stack storage
// (solveSmallDense — a reordering runs tens of thousands of these).
// Returns false when the system is numerically singular (the blocks share
// an eigenvalue and the exchange is ill-posed). All operands are w x w
// row-major scratch arrays of the window (w = p + q <= 4): a at offset
// (0,0), b at (p,p), c at (0,p) of `win`.
bool smallSylvester(const double* win, std::size_t w, std::size_t p,
                    std::size_t q, double* x) {
  double k[16] = {0.0};
  double rhs[4];
  const std::size_t pq = p * q;
  // vec is column-major: x_{i,j} -> index j*p + i.
  for (std::size_t j = 0; j < q; ++j)
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t row = j * p + i;
      for (std::size_t l = 0; l < p; ++l)
        k[row * pq + j * p + l] += win[i * w + l];
      for (std::size_t l = 0; l < q; ++l)
        k[row * pq + l * p + i] -= win[(p + l) * w + (p + j)];
      rhs[row] = win[i * w + (p + j)];
    }
  if (!solveSmallDense(k, rhs, pq, 1e-13)) return false;
  for (std::size_t j = 0; j < q; ++j)
    for (std::size_t i = 0; i < p; ++i) x[i * q + j] = rhs[j * p + i];
  return true;
}

// Full orthogonal factor of the Householder QR of the w x c stack
// (row-major in `st`, destroyed), written into the w x w row-major `qf`.
// Reuses the makeReflector convention of householder.hpp.
void smallFullQ(double* st, std::size_t w, std::size_t c, double* qf) {
  double vs[2][4], taus[2], xcol[4], beta;
  for (std::size_t col = 0; col < c; ++col) {
    const std::size_t len = w - col;
    for (std::size_t i = 0; i < len; ++i) xcol[i] = st[(col + i) * c + col];
    taus[col] = makeReflector(xcol, len, vs[col], beta);
    st[col * c + col] = beta;
    for (std::size_t i = 1; i < len; ++i) st[(col + i) * c + col] = 0.0;
    for (std::size_t j = col + 1; j < c; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < len; ++i)
        acc += vs[col][i] * st[(col + i) * c + j];
      acc *= taus[col];
      for (std::size_t i = 0; i < len; ++i)
        st[(col + i) * c + j] -= acc * vs[col][i];
    }
  }
  for (std::size_t i = 0; i < w * w; ++i) qf[i] = 0.0;
  for (std::size_t i = 0; i < w; ++i) qf[i * w + i] = 1.0;
  for (std::size_t col = c; col-- > 0;) {
    const std::size_t len = w - col;
    if (taus[col] == 0.0) continue;
    for (std::size_t j = 0; j < w; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < len; ++i)
        acc += vs[col][i] * qf[(col + i) * w + j];
      acc *= taus[col];
      for (std::size_t i = 0; i < len; ++i)
        qf[(col + i) * w + j] -= acc * vs[col][i];
    }
  }
}

// Block sizes of a quasi-triangular matrix starting at each block row.
std::vector<std::size_t> blockSizes(const Matrix& t) {
  std::vector<std::size_t> sizes;
  std::size_t i = 0;
  const std::size_t n = t.rows();
  while (i < n) {
    if (i + 1 < n && t(i + 1, i) != 0.0) {
      sizes.push_back(2);
      i += 2;
    } else {
      sizes.push_back(1);
      i += 1;
    }
  }
  return sizes;
}

std::complex<double> blockEigenvalue(const Matrix& t, std::size_t j,
                                     std::size_t sz) {
  if (sz == 1) return {t(j, j), 0.0};
  const double a11 = t(j, j), a12 = t(j, j + 1);
  const double a21 = t(j + 1, j), a22 = t(j + 1, j + 1);
  const double tr2 = (a11 + a22) / 2.0;
  const double det = a11 * a22 - a12 * a21;
  const double disc = tr2 * tr2 - det;
  if (disc >= 0.0) return {tr2 + std::sqrt(disc), 0.0};
  return {tr2, std::sqrt(-disc)};
}

// standardize2x2 with the qTransposed layout flag threaded through (the
// public standardize2x2 is a qTransposed = false wrapper).
bool standardize2x2Impl(Matrix& t, Matrix& q, std::size_t j,
                        bool qTransposed);

// Standardize the 2x2 block at (j, j) if one lives there, counting the
// operation in `report` when it changed the matrix. Returns true when the
// block was split into two real 1x1 blocks.
bool standardizeBlockAt(Matrix& t, Matrix& q, std::size_t j,
                        ReorderReport* report, bool qTransposed = false) {
  if (j + 1 >= t.rows() || t(j + 1, j) == 0.0) return false;
  const double a = t(j, j), b = t(j, j + 1);
  const double c = t(j + 1, j), d = t(j + 1, j + 1);
  const bool split = standardize2x2Impl(t, q, j, qTransposed);
  if (report &&
      (t(j, j) != a || t(j, j + 1) != b || t(j + 1, j) != c ||
       t(j + 1, j + 1) != d))
    ++report->standardizations;
  return split;
}

}  // namespace

void ReorderReport::absorb(const ReorderReport& other) {
  swaps += other.swaps;
  rejectedSwaps += other.rejectedSwaps;
  maxResidual = std::max(maxResidual, other.maxResidual);
  eigenvalueDrift += other.eigenvalueDrift;
  standardizations += other.standardizations;
}

namespace {
void standardizeQuasiTriangularImpl(Matrix& t, Matrix& q,
                                    ReorderReport* report,
                                    bool qTransposed) {
  const std::size_t n = t.rows();
  std::size_t i = 0;
  while (i + 1 < n) {
    if (t(i + 1, i) != 0.0) {
      standardizeBlockAt(t, q, i, report, qTransposed);
      i += (t(i + 1, i) != 0.0) ? 2 : 1;
    } else {
      ++i;
    }
  }
}
}  // namespace

void standardizeQuasiTriangular(Matrix& t, Matrix& q,
                                ReorderReport* report) {
  standardizeQuasiTriangularImpl(t, q, report, /*qTransposed=*/false);
}

namespace {
bool standardize2x2Impl(Matrix& t, Matrix& q, std::size_t j,
                        bool qTransposed) {
  const std::size_t n = t.rows();
  if (j + 2 > n) throw std::invalid_argument("standardize2x2: out of range");
  const Lanv2 st = lanv2(t(j, j), t(j, j + 1), t(j + 1, j), t(j + 1, j + 1));
  if (st.cs != 1.0 || st.sn != 0.0)
    applyRotation(t, q, j, st.cs, st.sn, qTransposed);
  // Overwrite the block with the exact dlanv2 outputs: the critical
  // entries (equal diagonals, exact zero on a split) must not carry the
  // round-off of the full-row/column update.
  t(j, j) = st.a;
  t(j, j + 1) = st.b;
  t(j + 1, j) = st.c;
  t(j + 1, j + 1) = st.d;
  return st.c == 0.0;
}
}  // namespace

bool standardize2x2(Matrix& t, Matrix& q, std::size_t j) {
  return standardize2x2Impl(t, q, j, /*qTransposed=*/false);
}

namespace {

// Largest |entry| of the whole Schur factor while reorderSchur works on a
// window copy w of T(lo:hi, lo:hi): the entries outside the window are read
// from t once, on first use (the off-window parts only change when the
// window is flushed), those inside from the current w. When the window is
// all of T this is exactly t.maxAbs().
class WindowedMaxAbs {
 public:
  WindowedMaxAbs(const Matrix& t, std::size_t lo, std::size_t hi)
      : t_(t), lo_(lo), hi_(hi) {}

  double operator()(const Matrix& w) {
    if (outside_ < 0.0) {
      outside_ = 0.0;
      const std::size_t n = t_.rows();
      for (std::size_t r = 0; r < n; ++r) {
        const bool inRows = r >= lo_ && r < hi_;
        for (std::size_t c = 0; c < n; ++c)
          if (!inRows || c < lo_ || c >= hi_)
            outside_ = std::max(outside_, std::abs(t_(r, c)));
      }
    }
    return std::max(outside_, w.maxAbs());
  }

 private:
  const Matrix& t_;
  std::size_t lo_, hi_;
  double outside_ = -1.0;
};

// `globalMax` supplies the global ||T|| of the acceptance threshold when t
// is a window copy (reorderSchur); null means t is the whole matrix.
bool swapAdjacentBlocksImpl(Matrix& t, Matrix& q, std::size_t j,
                            std::size_t p, std::size_t qsz,
                            ReorderReport* report, bool qTransposed,
                            WindowedMaxAbs* globalMax = nullptr) {
  const std::size_t n = t.rows();
  const std::size_t w = p + qsz;
  if (p == 0 || p > 2 || qsz == 0 || qsz > 2 || j + w > n)
    throw std::invalid_argument("swapAdjacentBlocks: out of range");
  const double eps = std::numeric_limits<double>::epsilon();

  const std::complex<double> l1 = blockEigenvalue(t, j, p);
  const std::complex<double> l2 = blockEigenvalue(t, j + p, qsz);

  if (p == 1 && qsz == 1) {
    // Direct exchange by one exact Givens rotation (dlaexc, N1 = N2 = 1):
    // [t12; t22 - t11] is the eigenvector of the window for t22; rotating
    // it onto e1 swaps the diagonal. Always backward stable, never
    // rejected, and the swapped diagonal entries are set exactly.
    const double t11 = t(j, j), t22 = t(j + 1, j + 1);
    double cs, sn;
    givens(t(j, j + 1), t22 - t11, cs, sn);
    applyRotation(t, q, j, cs, sn, qTransposed);
    t(j, j) = t22;
    t(j + 1, j + 1) = t11;
    t(j + 1, j) = 0.0;
    if (report) ++report->swaps;  // exact: residual 0, drift 0
    return true;
  }

  // General case (a 2x2 block involved): local Sylvester solve + QR, with
  // the transformation rehearsed on a window copy so a numerically bad
  // exchange can be rejected before touching t. Everything up to the
  // accept decision runs on stack scratch (w <= 4): a reordering
  // rehearses tens of thousands of windows, and the historical
  // Matrix/LU/QR small-object churn dominated its runtime.
  double win[16];
  for (std::size_t r = 0; r < w; ++r)
    for (std::size_t c = 0; c < w; ++c) win[r * w + c] = t(j + r, j + c);

  // Solve A11 X - X A22 = A12; then the columns of [-X; I] span the
  // invariant subspace of [A11 A12; 0 A22] belonging to A22's eigenvalues.
  double x[4];
  if (!smallSylvester(win, w, p, qsz, x)) {
    if (report) ++report->rejectedSwaps;
    obs::counterAdd(obs::Counter::ReorderRejectedSwaps);
    return false;
  }
  double stack[8];
  for (std::size_t r = 0; r < p; ++r)
    for (std::size_t c = 0; c < qsz; ++c) stack[r * qsz + c] = -x[r * qsz + c];
  for (std::size_t r = 0; r < qsz; ++r)
    for (std::size_t c = 0; c < qsz; ++c)
      stack[(p + r) * qsz + c] = (r == c) ? 1.0 : 0.0;
  double gf[16];  // w x w; leading qsz cols span the subspace
  smallFullQ(stack, w, qsz, gf);

  // Rehearse on the window: the lower-left qsz columns of G^T W G must
  // vanish; their largest survivor is the backward error the swap would
  // commit. Reject when it exceeds a small multiple of eps * ||window||
  // (dlaexc's acceptance threshold).
  double gw[16], reh[16];
  for (std::size_t r = 0; r < w; ++r)
    for (std::size_t c = 0; c < w; ++c) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < w; ++kk)
        acc += gf[kk * w + r] * win[kk * w + c];
      gw[r * w + c] = acc;
    }
  for (std::size_t r = 0; r < w; ++r)
    for (std::size_t c = 0; c < w; ++c) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < w; ++kk)
        acc += gw[r * w + kk] * gf[kk * w + c];
      reh[r * w + c] = acc;
    }
  double residual = 0.0;
  for (std::size_t r = qsz; r < w; ++r)
    for (std::size_t c = 0; c < qsz; ++c)
      residual = std::max(residual, std::abs(reh[r * w + c]));
  double winMax = 0.0;
  for (std::size_t i = 0; i < w * w; ++i)
    winMax = std::max(winMax, std::abs(win[i]));
  const double smlnum = std::numeric_limits<double>::min() / eps;
  const double thresh = std::max(10.0 * eps * winMax, smlnum);
  if (residual > thresh) {
    // The window-local threshold (dlaexc's choice) is too strict when the
    // window entries are small relative to the full matrix: upstream
    // orthogonal transforms already deposit round-off at the global scale,
    // so a residual at eps * ||T|| is as backward stable as the Schur
    // decomposition itself. Only reject a swap whose residual exceeds the
    // global-scale threshold too — that is the signature of a genuinely
    // ill-posed exchange (nearly shared eigenvalues), where force-zeroing
    // would visibly corrupt the spectrum.
    const double tMax = globalMax ? (*globalMax)(t) : t.maxAbs();
    const double globalThresh = std::max(20.0 * eps * tMax, smlnum);
    if (residual > globalThresh) {
      if (report) ++report->rejectedSwaps;
      obs::counterAdd(obs::Counter::ReorderRejectedSwaps);
      return false;
    }
  }

  // Accepted: apply the similarity in place, restricted to the
  // quasi-triangular profile (see applyWindowSimilarity), and accumulate
  // into q.
  Matrix g(w, w);
  for (std::size_t r = 0; r < w; ++r)
    for (std::size_t c = 0; c < w; ++c) g(r, c) = gf[r * w + c];
  applyWindowSimilarity(t, q, g, j, qTransposed);

  // Zero the decoupled lower-left block (its content — the residual — was
  // certified negligible above).
  for (std::size_t r = qsz; r < w; ++r)
    for (std::size_t c = 0; c < qsz; ++c) t(j + r, j + c) = 0.0;

  // Re-standardize the swapped blocks (a swap can leave a 2x2 block with
  // unequal diagonals, or push a near-degenerate pair onto the real axis,
  // in which case it is split into two 1x1 blocks).
  if (qsz == 2) standardizeBlockAt(t, q, j, report, qTransposed);
  if (p == 2) standardizeBlockAt(t, q, j + qsz, report, qTransposed);

  if (report) {
    ++report->swaps;
    report->maxResidual = std::max(report->maxResidual, residual);
    // Eigenvalue drift committed by this swap: blocks are exchanged, so
    // block2's pair now leads at j and block1's trails at j + qsz.
    const std::size_t s2 =
        (qsz == 2 && t(j + 1, j) == 0.0) ? 1 : qsz;  // split halves are 1x1
    const std::size_t s1 =
        (p == 2 && t(j + qsz + 1, j + qsz) == 0.0) ? 1 : p;
    double drift =
        std::abs(blockEigenvalue(t, j, s2) - l2) +
        std::abs(blockEigenvalue(t, j + qsz, s1) - l1);
    // A split block's eigenvalue pair collapsed onto the real axis: the
    // imaginary part it lost is drift too; blockEigenvalue already reports
    // the representative, so the |.| distance above covers it.
    report->eigenvalueDrift += drift;
  }
  return true;
}
}  // namespace

bool swapAdjacentBlocks(Matrix& t, Matrix& q, std::size_t j, std::size_t p,
                        std::size_t qsz, ReorderReport* report) {
  return swapAdjacentBlocksImpl(t, q, j, p, qsz, report,
                                /*qTransposed=*/false);
}

namespace {

// Flush a window that accepted a swap: T(lo:hi, lo:hi) <- w, and the
// accumulated window transform U (held as ut = U^T) applied to the
// off-window rows and columns of T and to the rows of Q^T, one gemm each.
void flushWindow(Matrix& t, Matrix& qt, const Matrix& w, const Matrix& ut,
                 std::size_t lo) {
  const std::size_t n = t.rows(), nw = w.rows(), hi = lo + nw;
  t.setBlock(lo, lo, w);
  if (hi < n) {
    const Matrix right = t.block(lo, hi, nw, n - hi);
    Matrix tmp(nw, n - hi);
    gemm(1.0, ut, false, right, false, 0.0, tmp);
    t.setBlock(lo, hi, tmp);
  }
  if (lo > 0) {
    const Matrix top = t.block(0, lo, lo, nw);
    Matrix tmp(lo, nw);
    gemm(1.0, top, false, ut, true, 0.0, tmp);
    t.setBlock(0, lo, tmp);
  }
  const Matrix rows = qt.block(lo, 0, nw, n);
  Matrix tmp(nw, n);
  gemm(1.0, ut, false, rows, false, 0.0, tmp);
  qt.setBlock(lo, 0, tmp);
}

}  // namespace

std::size_t reorderSchur(Matrix& t, Matrix& q,
                         const EigenvalueSelector& select,
                         ReorderReport* report) {
  const std::size_t n = t.rows();
  if (q.rows() != n || q.cols() != n)
    throw std::invalid_argument("reorderSchur: shape mismatch");
  obs::ObsSpan span("schur-reorder", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  ReorderReport local;
  ReorderReport& rep = report ? *report : local;
  rep = ReorderReport{};

  // Block scans assume a well-defined quasi-triangular structure; inputs
  // assembled outside realSchur may carry negligible deflation leftovers
  // that make adjacent 2x2 blocks overlap.
  repairQuasiTriangularStructure(t);

  // The reordering accumulates Q^T: the window flush then updates
  // contiguous rows, and the standardization rotations below stream
  // through contiguous memory instead of stride-n column walks.
  Matrix qt = q.transposed();

  // Standardization pass: every 2x2 block is brought to standard form, and
  // fused blocks whose eigenvalues are actually real are split into 1x1
  // blocks so the selector classifies each half independently.
  standardizeQuasiTriangularImpl(t, qt, &rep, /*qTransposed=*/true);

  // `target` is the row where the next selected block should land;
  // everything above it is finalized. The blocks are tracked by slot (the
  // i-th diagonal block from the top): `sizes`/`starts` follow every
  // accepted swap, and one scan over the slots moves each selected block
  // once — the historical one-block-at-a-time bubble's contract, with the
  // same adjacent exchanges, batched:
  //   * a GROUP of up to kReorderWindowBlocks selected blocks, spanning at
  //     most one window and at most half a window of their own rows (so
  //     every window moves the group at least half a window up), is moved
  //     up together;
  //   * each WINDOW is a copy of the kReorderWindowRows rows ending at the
  //     group's last block. Every group block is bubbled to the top of the
  //     window by swapAdjacentBlocks on the copy, with the small
  //     orthogonal transform accumulated; the flush then applies that
  //     transform to the off-window rows and columns of T and to Q^T with
  //     one gemm each;
  //   * the next window ends at the group's (now packed) last block, until
  //     a window starts at `target` and the group is finalized.
  // A rejected exchange leaves its block in place, out of the group; later
  // group blocks move past it, and it is only ever re-attempted when a
  // split forces a rescan, as the split may have dissolved the offending
  // block. A split — a swap's internal standardization dissolving a 2x2
  // block into two 1x1s whose halves may classify differently — ends the
  // window and rescans the block structure; splits are bounded by n, so
  // this terminates.
  std::size_t target = 0;
  bool rescan = true;
  while (rescan) {
    rescan = false;
    std::vector<std::size_t> sizes = blockSizes(t);
    std::vector<std::size_t> starts(sizes.size());
    std::size_t pos = 0;
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      starts[b] = pos;
      pos += sizes[b];
    }
    std::size_t next = 0;  // first slot the scan has not visited
    while (!rescan) {
      std::vector<std::size_t> group;
      std::size_t groupRows = 0;
      for (; next < sizes.size() && group.size() < kReorderWindowBlocks;
           ++next) {
        if (starts[next] < target) continue;
        if (!select(blockEigenvalue(t, starts[next], sizes[next]))) continue;
        if (!group.empty() &&
            (starts[next] + sizes[next] - starts[group.front()] >
                 kReorderWindowRows ||
             groupRows + sizes[next] > kReorderWindowRows / 2))
          break;
        group.push_back(next);
        groupRows += sizes[next];
      }
      if (group.empty()) break;

      // Move the group up one window at a time.
      bool finalized = false;
      while (!finalized && !rescan) {
        const std::size_t hi = starts[group.back()] + sizes[group.back()];
        // The window top is the first block start at or below
        // max(target, hi - kReorderWindowRows), so no 2x2 block straddles
        // the window edge.
        const std::size_t lowest =
            hi > target + kReorderWindowRows ? hi - kReorderWindowRows
                                             : target;
        std::size_t topSlot = group.front();
        while (topSlot > 0 && starts[topSlot - 1] >= lowest) --topSlot;
        const std::size_t lo = starts[topSlot];
        finalized = lo == target;

        Matrix w = t.block(lo, lo, hi - lo, hi - lo);
        Matrix ut = Matrix::identity(hi - lo);
        WindowedMaxAbs globalMax(t, lo, hi);
        const std::size_t swapsBefore = rep.swaps;
        std::size_t windowTarget = lo;
        std::vector<std::size_t> moving;  // group blocks still moving
        for (const std::size_t g : group) {
          std::size_t cur = g;
          bool stuck = false;
          while (starts[cur] > windowTarget) {
            const std::size_t szAbove = sizes[cur - 1];
            const std::size_t szMove = sizes[cur];
            const std::size_t j = starts[cur - 1] - lo;
            if (!swapAdjacentBlocksImpl(w, ut, j, szAbove, szMove, &rep,
                                        /*qTransposed=*/true, &globalMax)) {
              stuck = true;
              break;
            }
            const bool movedSplit = szMove == 2 && w(j + 1, j) == 0.0;
            const bool aboveSplit =
                szAbove == 2 && w(j + szMove + 1, j + szMove) == 0.0;
            sizes[cur - 1] = szMove;
            sizes[cur] = szAbove;
            starts[cur] = starts[cur - 1] + szMove;
            --cur;
            if (movedSplit || aboveSplit) {
              rescan = true;
              break;
            }
          }
          if (rescan) break;
          if (stuck) continue;
          windowTarget += sizes[cur];
          moving.push_back(cur);
        }
        if (rep.swaps != swapsBefore) flushWindow(t, qt, w, ut, lo);
        if (finalized) target = windowTarget;
        group = std::move(moving);
        if (group.empty()) finalized = true;
      }
    }
  }
  q = qt.transposed();
  return target;
}

}  // namespace shhpass::linalg
