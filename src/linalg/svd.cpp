#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/qr.hpp"
#include "obs/trace.hpp"

namespace shhpass::linalg {
namespace {

// Golub-Kahan-Reinsch SVD for m >= n (JAMA lineage). Computes thin U (m x n),
// singular values s (n), and full V (n x n), sorted descending. This is the
// unblocked reference kernel: per-reflector bidiagonalization and rank-1
// factor generation, then the shared implicit-QR sweep
// (detail::bidiagonalQrSweepTransposed) on the bidiagonal core. The
// dispatch below kSvdCrossover returns its result bit for bit.
void gkSvd(const Matrix& aIn, std::vector<double>& sv, Matrix& u, Matrix& v) {
  Matrix a = aIn;
  const int m = static_cast<int>(a.rows());
  const int n = static_cast<int>(a.cols());
  const int nu = n;
  sv.assign(n, 0.0);
  double* s = sv.data();
  u = Matrix(m, nu);
  v = Matrix(n, n);
  std::vector<double> e(n, 0.0), work(m, 0.0);

  // Bidiagonalize, storing reflectors in `a`, diagonal in s, superdiag in e.
  const int nct = std::min(m - 1, n);
  const int nrt = std::max(0, std::min(n - 2, m));
  for (int k = 0; k < std::max(nct, nrt); ++k) {
    if (k < nct) {
      double nrm = 0.0;
      for (int i = k; i < m; ++i) nrm = std::hypot(nrm, a(i, k));
      s[k] = nrm;
      if (s[k] != 0.0) {
        if (a(k, k) < 0.0) s[k] = -s[k];
        for (int i = k; i < m; ++i) a(i, k) /= s[k];
        a(k, k) += 1.0;
      }
      s[k] = -s[k];
    }
    for (int j = k + 1; j < n; ++j) {
      if (k < nct && s[k] != 0.0) {
        double t = 0.0;
        for (int i = k; i < m; ++i) t += a(i, k) * a(i, j);
        t = -t / a(k, k);
        for (int i = k; i < m; ++i) a(i, j) += t * a(i, k);
      }
      e[j] = a(k, j);
    }
    if (k < nct)
      for (int i = k; i < m; ++i) u(i, k) = a(i, k);
    if (k < nrt) {
      double nrm = 0.0;
      for (int i = k + 1; i < n; ++i) nrm = std::hypot(nrm, e[i]);
      e[k] = nrm;
      if (e[k] != 0.0) {
        if (e[k + 1] < 0.0) e[k] = -e[k];
        for (int i = k + 1; i < n; ++i) e[i] /= e[k];
        e[k + 1] += 1.0;
      }
      e[k] = -e[k];
      if (k + 1 < m && e[k] != 0.0) {
        for (int i = k + 1; i < m; ++i) work[i] = 0.0;
        for (int j = k + 1; j < n; ++j)
          for (int i = k + 1; i < m; ++i) work[i] += e[j] * a(i, j);
        for (int j = k + 1; j < n; ++j) {
          const double t = -e[j] / e[k + 1];
          for (int i = k + 1; i < m; ++i) a(i, j) += t * work[i];
        }
      }
      for (int i = k + 1; i < n; ++i) v(i, k) = e[i];
    }
  }

  int p = n;
  if (nct < n) s[nct] = a(nct, nct);
  if (nrt + 1 < p) e[nrt] = a(nrt, p - 1);
  e[p - 1] = 0.0;

  // Generate U.
  for (int j = nct; j < nu; ++j) {
    for (int i = 0; i < m; ++i) u(i, j) = 0.0;
    u(j, j) = 1.0;
  }
  for (int k = nct - 1; k >= 0; --k) {
    if (s[k] != 0.0) {
      for (int j = k + 1; j < nu; ++j) {
        double t = 0.0;
        for (int i = k; i < m; ++i) t += u(i, k) * u(i, j);
        t = -t / u(k, k);
        for (int i = k; i < m; ++i) u(i, j) += t * u(i, k);
      }
      for (int i = k; i < m; ++i) u(i, k) = -u(i, k);
      u(k, k) = 1.0 + u(k, k);
      for (int i = 0; i < k - 1 + 1; ++i) u(i, k) = 0.0;
    } else {
      for (int i = 0; i < m; ++i) u(i, k) = 0.0;
      u(k, k) = 1.0;
    }
  }

  // Generate V.
  for (int k = n - 1; k >= 0; --k) {
    if (k < nrt && e[k] != 0.0) {
      for (int j = k + 1; j < n; ++j) {
        double t = 0.0;
        for (int i = k + 1; i < n; ++i) t += v(i, k) * v(i, j);
        t = -t / v(k + 1, k);
        for (int i = k + 1; i < n; ++i) v(i, j) += t * v(i, k);
      }
    }
    for (int i = 0; i < n; ++i) v(i, k) = 0.0;
    v(k, k) = 1.0;
  }

  // Diagonalize the bidiagonal core with the shared sweep on transposed
  // (row-contiguous) factor layouts, as gkSvdBlocked does.
  Matrix ut = u.transposed();
  Matrix vt = v.transposed();
  detail::bidiagonalQrSweepTransposed(sv, e, ut, vt);
  u = ut.transposed();
  v = vt.transposed();
}

}  // namespace

// ------------------------------------------------------------------------
// Blocked (dgebrd/dlabrd-style) kernel.
// ------------------------------------------------------------------------

namespace detail {
namespace {

// Where the sweep's vector operations go. The sweep's shifts and
// rotation coefficients only ever read s and e, never the factors, so
// each operation on the rows of ut / vt may be applied at once
// (ImmediateRows), recorded and replayed later (ReplayedRows), or dropped
// (NoRows, the values-only mode): the singular values are the same bits
// either way.
struct NoRows {
  void rotateU(int, int, double, double) {}
  void rotateV(int, int, double, double) {}
  void negateV(int) {}
  void swapU(int) {}
  void swapV(int) {}
  void flush() {}
};

// The sweep's own row loops, applied as each operation is decided: the
// body below kSvdReplayFloor, and the oracle of the replay
// (bidiagonalQrSweepUnblocked).
class ImmediateRows {
 public:
  ImmediateRows(Matrix& ut, Matrix& vt, int n)
      : ut_(ut), vt_(vt), m_(static_cast<int>(ut.cols())), n_(n) {}

  void rotateU(int x, int y, double cs, double sn) {
    rotate(&ut_(x, 0), &ut_(y, 0), m_, cs, sn);
  }
  void rotateV(int x, int y, double cs, double sn) {
    rotate(&vt_(x, 0), &vt_(y, 0), n_, cs, sn);
  }
  void negateV(int k) {
    double* vk = &vt_(k, 0);
    for (int i = 0; i < n_; ++i) vk[i] = -vk[i];
  }
  void swapU(int k) {
    std::swap_ranges(&ut_(k, 0), &ut_(k, 0) + m_, &ut_(k + 1, 0));
  }
  void swapV(int k) {
    std::swap_ranges(&vt_(k, 0), &vt_(k, 0) + n_, &vt_(k + 1, 0));
  }
  void flush() {}

 private:
  static void rotate(double* x, double* y, int len, double cs, double sn) {
    for (int i = 0; i < len; ++i) {
      const double t = cs * x[i] + sn * y[i];
      y[i] = -sn * x[i] + cs * y[i];
      x[i] = t;
    }
  }

  Matrix& ut_;
  Matrix& vt_;
  int m_, n_;
};

// Records the operations in a log of at most kLogLength entries and
// replays it with applyRowOps — over column blocks of ut and vt that stay
// in cache, fanned out over the kernel pool — whenever it fills and at
// the end of the sweep (Van Zee, van de Geijn and Quintana-Orti,
// "Restructuring the tridiagonal and bidiagonal QR algorithms for
// performance", ACM TOMS 40(3), 2014). Each element still sees its
// operations in order with the unfused arithmetic of ImmediateRows, so
// the factors are the same bits.
class ReplayedRows {
 public:
  // 8192 ops (256 KiB) is a few QR steps of an order-640 core per replay,
  // and bounds the log whatever the order.
  static constexpr std::size_t kLogLength = 8192;

  ReplayedRows(Matrix& ut, Matrix& vt, std::size_t n)
      : targets_{MatrixView(ut), MatrixView(vt).block(0, 0, vt.rows(), n)} {
    log_.reserve(kLogLength);
  }

  void rotateU(int x, int y, double cs, double sn) {
    push({RowOp::Kind::Rotate, 0, row(x), row(y), cs, sn});
  }
  void rotateV(int x, int y, double cs, double sn) {
    push({RowOp::Kind::Rotate, 1, row(x), row(y), cs, sn});
  }
  void negateV(int k) { push({RowOp::Kind::Negate, 1, row(k), 0, 1.0, 0.0}); }
  void swapU(int k) {
    push({RowOp::Kind::Swap, 0, row(k), row(k + 1), 1.0, 0.0});
  }
  void swapV(int k) {
    push({RowOp::Kind::Swap, 1, row(k), row(k + 1), 1.0, 0.0});
  }
  void flush() {
    applyRowOps(log_, targets_);
    log_.clear();
  }

 private:
  static std::uint32_t row(int i) { return static_cast<std::uint32_t>(i); }
  void push(const RowOp& op) {
    log_.push_back(op);
    if (log_.size() == kLogLength) flush();
  }

  std::vector<RowOp> log_;
  MatrixView targets_[2];
};

// The Golub-Kahan-Reinsch implicit-QR iteration (JAMA lineage) on
// TRANSPOSED factors: row j of `ut` is column j of U, row j of `vt` is
// column j of V. Every Givens rotation then updates two contiguous rows
// instead of two stride-n columns. `rows` decides when the row
// operations reach the factors (see NoRows / ImmediateRows /
// ReplayedRows); `m` is the length of a U row.
template <typename Rows>
void bidiagonalQrSweep(std::vector<double>& sv, std::vector<double>& e,
                       int m, Rows& rows) {
  double* s = sv.data();
  const int n = static_cast<int>(sv.size());
  int p = n;
  const int pp = p - 1;
  int iter = 0;
  const double eps = std::numeric_limits<double>::epsilon();
  const double tiny = std::numeric_limits<double>::min() / eps;
  while (p > 0) {
    int k, kase;
    for (k = p - 2; k >= -1; --k) {
      if (k == -1) break;
      if (std::abs(e[k]) <=
          tiny + eps * (std::abs(s[k]) + std::abs(s[k + 1]))) {
        e[k] = 0.0;
        break;
      }
    }
    if (k == p - 2) {
      kase = 4;
    } else {
      int ks;
      for (ks = p - 1; ks >= k; --ks) {
        if (ks == k) break;
        const double t = (ks != p ? std::abs(e[ks]) : 0.0) +
                         (ks != k + 1 ? std::abs(e[ks - 1]) : 0.0);
        if (std::abs(s[ks]) <= tiny + eps * t) {
          s[ks] = 0.0;
          break;
        }
      }
      if (ks == k) {
        kase = 3;
      } else if (ks == p - 1) {
        kase = 1;
      } else {
        kase = 2;
        k = ks;
      }
    }
    ++k;

    switch (kase) {
      case 1: {  // Deflate negligible s(p-1).
        double f = e[p - 2];
        e[p - 2] = 0.0;
        for (int j = p - 2; j >= k; --j) {
          const double t = std::hypot(s[j], f);
          const double cs = s[j] / t;
          const double sn = f / t;
          s[j] = t;
          if (j != k) {
            f = -sn * e[j - 1];
            e[j - 1] = cs * e[j - 1];
          }
          rows.rotateV(j, p - 1, cs, sn);
        }
        break;
      }
      case 2: {  // Split at negligible s(k).
        double f = e[k - 1];
        e[k - 1] = 0.0;
        for (int j = k; j < p; ++j) {
          const double t = std::hypot(s[j], f);
          const double cs = s[j] / t;
          const double sn = f / t;
          s[j] = t;
          f = -sn * e[j];
          e[j] = cs * e[j];
          rows.rotateU(j, k - 1, cs, sn);
        }
        break;
      }
      case 3: {  // One QR step with Wilkinson shift.
        const double scale = std::max(
            {std::abs(s[p - 1]), std::abs(s[p - 2]), std::abs(e[p - 2]),
             std::abs(s[k]), std::abs(e[k])});
        const double sp = s[p - 1] / scale;
        const double spm1 = s[p - 2] / scale;
        const double epm1 = e[p - 2] / scale;
        const double sk = s[k] / scale;
        const double ek = e[k] / scale;
        const double b = ((spm1 + sp) * (spm1 - sp) + epm1 * epm1) / 2.0;
        const double c = (sp * epm1) * (sp * epm1);
        double shift = 0.0;
        if (b != 0.0 || c != 0.0) {
          shift = std::sqrt(b * b + c);
          if (b < 0.0) shift = -shift;
          shift = c / (b + shift);
        }
        double f = (sk + sp) * (sk - sp) + shift;
        double g = sk * ek;
        for (int j = k; j < p - 1; ++j) {
          double t = std::hypot(f, g);
          double cs = f / t;
          double sn = g / t;
          if (j != k) e[j - 1] = t;
          f = cs * s[j] + sn * e[j];
          e[j] = cs * e[j] - sn * s[j];
          g = sn * s[j + 1];
          s[j + 1] = cs * s[j + 1];
          rows.rotateV(j, j + 1, cs, sn);
          t = std::hypot(f, g);
          cs = f / t;
          sn = g / t;
          s[j] = t;
          f = cs * e[j] + sn * s[j + 1];
          s[j + 1] = -sn * e[j] + cs * s[j + 1];
          g = sn * e[j + 1];
          e[j + 1] = cs * e[j + 1];
          if (j < m - 1) rows.rotateU(j, j + 1, cs, sn);
        }
        e[p - 2] = f;
        if (++iter > 500) {
          rows.flush();
          throw std::runtime_error("SVD: QR iteration failed to converge");
        }
        break;
      }
      case 4: {  // Convergence.
        if (s[k] <= 0.0) {
          s[k] = (s[k] < 0.0 ? -s[k] : 0.0);
          rows.negateV(k);
        }
        while (k < pp) {
          if (s[k] >= s[k + 1]) break;
          std::swap(s[k], s[k + 1]);
          if (k < n - 1) rows.swapV(k);
          if (k < m - 1) rows.swapU(k);
          ++k;
        }
        iter = 0;
        --p;
        break;
      }
    }
  }
  rows.flush();
}

}  // namespace

void bidiagonalQrSweepTransposed(std::vector<double>& sv,
                                 std::vector<double>& e, Matrix& ut,
                                 Matrix& vt, bool withVectors) {
  const std::size_t n = sv.size();
  obs::ObsSpan span("bidiagonal-sweep", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  if (!withVectors) {
    NoRows rows;
    bidiagonalQrSweep(sv, e, 0, rows);
    return;
  }
  if (n * (n + ut.cols()) < kSvdReplayFloor) {
    bidiagonalQrSweepUnblocked(sv, e, ut, vt);
    return;
  }
  ReplayedRows rows(ut, vt, n);
  bidiagonalQrSweep(sv, e, static_cast<int>(ut.cols()), rows);
}

void bidiagonalQrSweepUnblocked(std::vector<double>& sv,
                                std::vector<double>& e, Matrix& ut,
                                Matrix& vt) {
  ImmediateRows rows(ut, vt, static_cast<int>(sv.size()));
  bidiagonalQrSweep(sv, e, static_cast<int>(ut.cols()), rows);
}

}  // namespace detail

namespace {

// One dlabrd panel: bidiagonalizes rows/columns k .. k+nb-1 of `w` with
// lazily-applied updates. Instead of updating the trailing matrix after
// every reflector, the panel maintains
//
//   X = (fully updated A) * [right reflectors] * diag(taup)   (m x nb)
//   Y = (fully updated A)^T * [left reflectors] * diag(tauq)  (n x nb)
//
// so that the fully-updated entry of any panel row/column can be
// materialized on demand (the dlabrd recurrences below), and the whole
// trailing matrix is updated at once by the caller with two gemm calls:
//
//   A(k+nb:, k+nb:) -= V2 * Y2^T + X2 * U2,
//
// V2/U2 the below-/right-of-panel parts of the reflector blocks. The
// reflector vectors overwrite `w` LAPACK-style with their unit leading
// entries stored EXPLICITLY (at (i, i) and (i, i+1)), which is exactly
// what the trailing gemms and the compact-WY accumulation need; the
// bidiagonal itself lives in d/e (absolute indices), never in `w`.
void bidiagonalizePanel(Matrix& w, std::size_t k, std::size_t nb, Matrix& x,
                        Matrix& y, double* d, double* e, double* tauq,
                        double* taup) {
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  std::vector<double> vcol(m), urow(n), gather(std::max(m, n)),
      acc(std::max(m, n)), t1(nb + 1), t2(nb);
  for (std::size_t t = 0; t < nb; ++t) {
    const std::size_t i = k + t;

    // Materialize the fully-updated column i:
    //   w(i:, i) -= w(i:, k:k+t) * Y(i, 0:t)^T + X(i:, 0:t) * w(k:k+t, i).
    if (t > 0) {
      const double* yi = &y(i, 0);
      for (std::size_t c = 0; c < t; ++c) t2[c] = w(k + c, i);
      for (std::size_t r = i; r < m; ++r) {
        const double* wr = &w(r, k);
        const double* xr = &x(r, 0);
        double a = w(r, i);
        for (std::size_t c = 0; c < t; ++c)
          a -= wr[c] * yi[c] + xr[c] * t2[c];
        w(r, i) = a;
      }
    }

    // Left reflector annihilating w(i+1:, i); unit entry stored at (i, i).
    for (std::size_t r = i; r < m; ++r) gather[r - i] = w(r, i);
    double beta;
    tauq[i] = makeReflector(gather.data(), m - i, vcol.data(), beta);
    d[i] = beta;
    for (std::size_t r = i; r < m; ++r) w(r, i) = vcol[r - i];

    if (i + 1 >= n) continue;  // last column: no row reflector, no X/Y

    // Y(i+1:, t) = tauq * (w(i:, i+1:)^T v - Y(:, 0:t) (w(i:, k:k+t)^T v)
    //                      - w(k:k+t, i+1:)^T (X(i:, 0:t)^T v)).
    std::fill(acc.begin() + i + 1, acc.begin() + n, 0.0);
    std::fill(t1.begin(), t1.begin() + t, 0.0);
    std::fill(t2.begin(), t2.begin() + t, 0.0);
    for (std::size_t r = i; r < m; ++r) {
      const double vr = vcol[r - i];
      if (vr == 0.0) continue;
      const double* wr = &w(r, 0);
      for (std::size_t j = i + 1; j < n; ++j) acc[j] += wr[j] * vr;
      const double* wk = &w(r, k);
      const double* xr = &x(r, 0);
      for (std::size_t c = 0; c < t; ++c) {
        t1[c] += wk[c] * vr;
        t2[c] += xr[c] * vr;
      }
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      const double* yr = &y(j, 0);
      double a = 0.0;
      for (std::size_t c = 0; c < t; ++c) a += yr[c] * t1[c];
      acc[j] -= a;
    }
    for (std::size_t c = 0; c < t; ++c) {
      const double f = t2[c];
      if (f == 0.0) continue;
      const double* wc = &w(k + c, 0);
      for (std::size_t j = i + 1; j < n; ++j) acc[j] -= wc[j] * f;
    }
    for (std::size_t j = i + 1; j < n; ++j) y(j, t) = tauq[i] * acc[j];

    // Materialize the fully-updated row i:
    //   w(i, i+1:) -= Y(i+1:, 0:t+1) * w(i, k:k+t+1)^T
    //                 + w(k:k+t, i+1:)^T X(i, 0:t)^T.
    {
      const double* wik = &w(i, k);
      for (std::size_t c = 0; c <= t; ++c) t1[c] = wik[c];
      double* wr = &w(i, 0);
      for (std::size_t j = i + 1; j < n; ++j) {
        const double* yr = &y(j, 0);
        double a = 0.0;
        for (std::size_t c = 0; c <= t; ++c) a += yr[c] * t1[c];
        wr[j] -= a;
      }
      for (std::size_t c = 0; c < t; ++c) {
        const double f = x(i, c);
        if (f == 0.0) continue;
        const double* wc = &w(k + c, 0);
        for (std::size_t j = i + 1; j < n; ++j) wr[j] -= wc[j] * f;
      }
    }

    // Right reflector annihilating w(i, i+2:); unit stored at (i, i+1).
    taup[i] = makeReflector(&w(i, i + 1), n - i - 1, urow.data(), beta);
    e[i] = beta;
    {
      double* wr = &w(i, i + 1);
      for (std::size_t j = 0; j + i + 1 < n; ++j) wr[j] = urow[j];
    }

    // X(i+1:, t) = taup * (w(i+1:, i+1:) u - w(i+1:, k:k+t+1) (Y(i+1:, 0:t+1)^T u)
    //                      - X(i+1:, 0:t) (w(k:k+t, i+1:) u)).
    std::fill(t1.begin(), t1.begin() + t + 1, 0.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double uj = urow[j - i - 1];
      if (uj == 0.0) continue;
      const double* yr = &y(j, 0);
      for (std::size_t c = 0; c <= t; ++c) t1[c] += yr[c] * uj;
    }
    for (std::size_t c = 0; c < t; ++c) {
      const double* wc = &w(k + c, 0);
      double a = 0.0;
      for (std::size_t j = i + 1; j < n; ++j) a += wc[j] * urow[j - i - 1];
      t2[c] = a;
    }
    for (std::size_t r = i + 1; r < m; ++r) {
      const double* wr = &w(r, 0);
      const double* wk = &w(r, k);
      const double* xr = &x(r, 0);
      double a = 0.0;
      for (std::size_t j = i + 1; j < n; ++j) a += wr[j] * urow[j - i - 1];
      for (std::size_t c = 0; c <= t; ++c) a -= wk[c] * t1[c];
      for (std::size_t c = 0; c < t; ++c) a -= xr[c] * t2[c];
      x(r, t) = taup[i] * a;
    }
  }
}

// Blocked Golub-Kahan SVD for m >= n >= 3: dlabrd panels + gemm trailing
// updates for the bidiagonalization, compact-WY panel application for the
// U/V accumulation, and the transposed-layout implicit-QR sweep on the
// bidiagonal core. Same output contract as gkSvd (thin U, full V, s
// descending); the two agree to backward-stable roundoff, not bitwise.
void gkSvdBlocked(const Matrix& aIn, std::vector<double>& sv, Matrix& u,
                  Matrix& v, bool wantVectors = true) {
  Matrix w = aIn;
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  std::vector<double> d(n, 0.0), e(n, 0.0), tauq(n, 0.0), taup(n, 0.0);

  struct Panel {
    std::size_t start, width;
  };
  std::vector<Panel> panels;

  std::size_t k = 0;
  while (n - k > kSvdPanel) {
    const std::size_t nb = kSvdPanel;
    Matrix x(m, nb), y(n, nb);
    bidiagonalizePanel(w, k, nb, x, y, d.data(), e.data(), tauq.data(),
                       taup.data());
    // Trailing update (the BLAS-3 bulk): two gemms over the remainder.
    const std::size_t mt = m - k - nb, nt = n - k - nb;
    Matrix trail = w.block(k + nb, k + nb, mt, nt);
    gemm(-1.0, w.block(k + nb, k, mt, nb), false,
         y.block(k + nb, 0, nt, nb), true, 1.0, trail);
    gemm(-1.0, x.block(k + nb, 0, mt, nb), false,
         w.block(k, k + nb, nb, nt), false, 1.0, trail);
    w.setBlock(k + nb, k + nb, trail);
    panels.push_back({k, nb});
    k += nb;
  }
  {
    // Final (possibly narrow) panel: no trailing matrix left, so the
    // lazy recurrences alone finish the bidiagonalization.
    const std::size_t nb = n - k;
    Matrix x(m, nb), y(n, nb);
    bidiagonalizePanel(w, k, nb, x, y, d.data(), e.data(), tauq.data(),
                       taup.data());
    panels.push_back({k, nb});
  }

  if (!wantVectors) {
    // Values-only mode: skip the compact-WY factor accumulation and run
    // the rotation sweep without factor updates. The rotation sequence
    // (and therefore every singular value) is bit-identical to the
    // with-vectors run: the shifts and Givens coefficients only ever
    // read the bidiagonal s/e arrays.
    sv = d;
    e[n - 1] = 0.0;
    Matrix ut, vt;
    detail::bidiagonalQrSweepTransposed(sv, e, ut, vt, /*withVectors=*/false);
    return;
  }

  // Accumulate thin U = H_0 ... H_{nct-1} * I(m x n), panel by panel in
  // reverse order; panel p only touches rows/columns >= its start.
  u = Matrix(m, n);
  for (std::size_t j = 0; j < n; ++j) u(j, j) = 1.0;
  for (auto it = panels.rbegin(); it != panels.rend(); ++it) {
    const std::size_t kp = it->start, kb = it->width;
    Matrix vb(m - kp, kb);
    for (std::size_t c = 0; c < kb; ++c)
      for (std::size_t r = kp + c; r < m; ++r) vb(r - kp, c) = w(r, kp + c);
    const std::vector<double> tq(tauq.begin() + kp, tauq.begin() + kp + kb);
    const Matrix tf = buildCompactWyT(vb, tq);
    Matrix blk = u.block(kp, kp, m - kp, n - kp);
    applyBlockReflectorLeft(vb, tf, /*transpose=*/false, blk);
    u.setBlock(kp, kp, blk);
  }

  // Accumulate V = P_0 ... P_{n-3} * I(n); reflector of row i lives in
  // w(i, i+1:) with support starting at index i+1.
  v = Matrix::identity(n);
  for (auto it = panels.rbegin(); it != panels.rend(); ++it) {
    const std::size_t kp = it->start;
    const std::size_t last = std::min(kp + it->width, n - 1);
    if (last <= kp) continue;  // final 1-wide panel at the corner
    const std::size_t kb = last - kp;
    Matrix vb(n - kp - 1, kb);
    for (std::size_t c = 0; c < kb; ++c) {
      const std::size_t i = kp + c;
      for (std::size_t j = i + 1; j < n; ++j) vb(j - kp - 1, c) = w(i, j);
    }
    const std::vector<double> tp(taup.begin() + kp, taup.begin() + kp + kb);
    const Matrix tf = buildCompactWyT(vb, tp);
    Matrix blk = v.block(kp + 1, kp + 1, n - kp - 1, n - kp - 1);
    applyBlockReflectorLeft(vb, tf, /*transpose=*/false, blk);
    v.setBlock(kp + 1, kp + 1, blk);
  }

  // Diagonalize the bidiagonal core on transposed (row-contiguous)
  // factor layouts, then transpose back.
  sv = d;
  e[n - 1] = 0.0;
  Matrix ut = u.transposed();
  Matrix vt = v.transposed();
  detail::bidiagonalQrSweepTransposed(sv, e, ut, vt);
  u = ut.transposed();
  v = vt.transposed();
}

}  // namespace

RankReport::RankReport()
    : minKeptMargin(std::numeric_limits<double>::infinity()) {}

double resolveRankTol(const std::vector<double>& s, std::size_t m,
                      std::size_t n, double tol) {
  if (tol >= 0.0) return tol;
  const double smax = s.empty() ? 0.0 : s.front();
  return static_cast<double>(std::max(m, n)) *
         std::numeric_limits<double>::epsilon() * std::max(smax, 1e-300);
}

std::size_t rankFromSingularValues(const std::vector<double>& s,
                                   std::size_t m, std::size_t n, double tol,
                                   RankReport* report) {
  const double cut = resolveRankTol(s, m, n, tol);
  std::size_t r = 0;
  for (double sv : s)
    if (sv > cut) ++r;
  if (report) {
    ++report->decisions;
    if (r > 0)
      report->minKeptMargin = std::min(report->minKeptMargin, s[r - 1] / cut);
    if (r < s.size())
      report->maxDroppedMargin =
          std::max(report->maxDroppedMargin, s[r] / cut);
  }
  return r;
}

SVD::SVD(const Matrix& a, SvdKernel kernel) : m_(a.rows()), n_(a.cols()) {
  // Span only at blocked-worthy sizes; the deflation chains factor many
  // tiny blocks that would otherwise flood the trace.
  obs::ObsSpan span("svd", "kernel", std::min(m_, n_) >= 64);
  span.arg("minDim", static_cast<std::int64_t>(std::min(m_, n_)));
  if (a.empty()) {
    u_ = Matrix::identity(m_);
    v_ = Matrix::identity(n_);
    return;
  }
  const std::size_t mn = std::min(m_, n_);
  bool blocked = false;
  switch (kernel) {
    case SvdKernel::Unblocked:
      break;
    case SvdKernel::Blocked:
      blocked = mn >= 3;  // below that the panel machinery degenerates
      break;
    case SvdKernel::Auto:
      blocked = mn >= kSvdCrossover;
      break;
  }
  const auto run = [blocked](const Matrix& in, std::vector<double>& sv,
                             Matrix& uu, Matrix& vv) {
    if (blocked)
      gkSvdBlocked(in, sv, uu, vv);
    else
      gkSvd(in, sv, uu, vv);
  };
  if (m_ >= n_) {
    run(a, s_, u_, v_);
  } else {
    transposed_ = true;
    Matrix ut, vt;
    run(a.transposed(), s_, vt, ut);  // A^T = vt S ut^T  =>  A = ut S vt^T
    u_ = ut;  // m x m (full V of the transposed problem)
    v_ = vt;  // n x m (thin U of the transposed problem)
  }
}

double SVD::defaultTol() const { return resolveRankTol(s_, m_, n_, -1.0); }

std::size_t SVD::rank(double tol, RankReport* report) const {
  return rankFromSingularValues(s_, m_, n_, tol, report);
}

Matrix SVD::range(double tol) const {
  const std::size_t r = rank(tol);
  return u_.block(0, 0, m_, r);
}

Matrix SVD::nullspace(double tol) const {
  const std::size_t r = rank(tol);
  const std::size_t nullity = n_ - r;
  if (nullity == 0) return Matrix(n_, 0);
  if (!transposed_) {
    // v_ is full n x n; kernel columns are r..n-1.
    return v_.block(0, r, n_, nullity);
  }
  // v_ is n x m (thin). Columns r..m-1 are kernel directions with sigma ~ 0;
  // the orthogonal complement of all of v_ supplies the remaining n - m.
  Matrix known = v_.block(0, r, n_, v_.cols() - r);
  Matrix comp = orthonormalComplement(v_);
  return hcat(known, comp);
}

Matrix SVD::leftNullspace(double tol) const {
  const std::size_t r = rank(tol);
  const std::size_t defect = m_ - r;
  if (defect == 0) return Matrix(m_, 0);
  if (transposed_) {
    // u_ is full m x m; left-null columns are r..m-1.
    return u_.block(0, r, m_, defect);
  }
  Matrix known = u_.block(0, r, m_, u_.cols() - r);
  Matrix comp = orthonormalComplement(u_);
  return hcat(known, comp);
}

Matrix SVD::pseudoInverse(double tol) const {
  if (tol < 0.0) tol = defaultTol();
  const std::size_t k = s_.size();
  Matrix x(n_, m_);
  // X = V diag(1/s) U^T restricted to sigma > tol.
  for (std::size_t p = 0; p < k; ++p) {
    if (s_[p] <= tol) continue;
    const double inv = 1.0 / s_[p];
    for (std::size_t i = 0; i < n_; ++i) {
      const double vi = v_(i, p) * inv;
      if (vi == 0.0) continue;
      for (std::size_t j = 0; j < m_; ++j) x(i, j) += vi * u_(j, p);
    }
  }
  return x;
}

double SVD::cond() const {
  if (s_.empty()) return 0.0;
  const std::size_t k = std::min(m_, n_);
  const double smin = s_[k - 1];
  if (smin == 0.0) return std::numeric_limits<double>::infinity();
  return s_.front() / smin;
}

std::vector<double> singularValues(const Matrix& a) {
  if (a.empty()) return {};
  const std::size_t mn = std::min(a.rows(), a.cols());
  if (mn < kSvdCrossover || mn < 3)
    return SVD(a).singularValues();  // small: factor cost is negligible
  std::vector<double> sv;
  Matrix u, v;
  if (a.rows() >= a.cols())
    gkSvdBlocked(a, sv, u, v, /*wantVectors=*/false);
  else
    gkSvdBlocked(a.transposed(), sv, u, v, /*wantVectors=*/false);
  return sv;
}

}  // namespace shhpass::linalg
