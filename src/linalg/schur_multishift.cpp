#include "linalg/schur_multishift.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "linalg/aed.hpp"
#include "linalg/blas.hpp"

namespace shhpass::linalg {

void SchurReport::absorb(const SchurReport& other) {
  multishift = multishift || other.multishift;
  sweeps += other.sweeps;
  aedWindows += other.aedWindows;
  aedDeflations += other.aedDeflations;
  shiftsApplied += other.shiftsApplied;
  iterations += other.iterations;
  structureRepairs += other.structureRepairs;
}

std::size_t schurShiftCount(std::size_t active) {
  // IPARMQ-style ladder; always even (shifts are consumed in pairs).
  if (active < 150) return 12;
  if (active < 590) return 24;
  if (active < 1200) return 48;
  if (active < 3000) return 56;
  return 72;
}

std::size_t schurAedWindow(std::size_t active) {
  // Twice the shift count: a wide window deflates more eigenvalues per
  // visit (its Schur factorization is cheap relative to the sweeps it
  // saves) and still yields the sweep's full shift pool.
  return 2 * schurShiftCount(active) + 2;
}

void francisSchurWindow(Matrix& h, Matrix& z, std::size_t lo0, std::size_t hi0,
                        SchurReport* report) {
  const int nn = static_cast<int>(h.cols());
  const int zRows = static_cast<int>(z.rows());
  const int low = static_cast<int>(lo0);
  const int high = static_cast<int>(hi0);
  int n = high;
  const double eps = std::numeric_limits<double>::epsilon();
  double exshift = 0.0;
  double p = 0, q = 0, r = 0, s = 0, zz = 0, t, w, x, y;

  // Window norm: the fallback scale of the small-subdiagonal test.
  double norm = 0.0;
  for (int i = low; i <= high; ++i)
    for (int j = std::max(i - 1, low); j <= high; ++j)
      norm += std::abs(h(i, j));

  int iter = 0;
  long totalIter = 0;
  const long maxTotalIter = 60L * (high - low + 1) + 200;
  while (n >= low) {
    if (++totalIter > maxTotalIter) {
      if (report) report->iterations += totalIter;
      throw SchurConvergenceError(
          "francisSchurWindow: QR iteration failed to converge");
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
      if (l > low) h(n, n - 1) = 0.0;
      --n;
      iter = 0;
    } else if (l == n - 1) {
      // Two roots found.
      w = h(n, n - 1) * h(n - 1, n);
      p = (h(n - 1, n - 1) - h(n, n)) / 2.0;
      q = p * p + w;
      zz = std::sqrt(std::abs(q));
      h(n, n) += exshift;
      h(n - 1, n - 1) += exshift;
      x = h(n, n);

      if (q >= 0) {
        // Real pair: rotate the 2x2 block onto the diagonal.
        zz = (p >= 0) ? p + zz : p - zz;
        x = h(n, n - 1);
        s = std::abs(x) + std::abs(zz);
        p = x / s;
        q = zz / s;
        r = std::sqrt(p * p + q * q);
        p /= r;
        q /= r;
        for (int j = n - 1; j < nn; ++j) {
          zz = h(n - 1, j);
          h(n - 1, j) = q * zz + p * h(n, j);
          h(n, j) = q * h(n, j) - p * zz;
        }
        for (int i = 0; i <= n; ++i) {
          zz = h(i, n - 1);
          h(i, n - 1) = q * zz + p * h(i, n);
          h(i, n) = q * h(i, n) - p * zz;
        }
        for (int i = 0; i < zRows; ++i) {
          zz = z(i, n - 1);
          z(i, n - 1) = q * zz + p * z(i, n);
          z(i, n) = q * z(i, n) - p * zz;
        }
        h(n, n - 1) = 0.0;
      }
      // Either way the pair has converged: the subdiagonal entry the
      // deflation test judged negligible (under the shifted diagonals)
      // is zeroed NOW, so no eps-level leftover survives between this
      // block and the one that converges above it.
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
        zz = h(m, m);
        r = x - zz;
        s = y - zz;
        p = (r * s - w) / h(m + 1, m) + h(m, m + 1);
        q = h(m + 1, m + 1) - zz - r - s;
        r = h(m + 2, m + 1);
        s = std::abs(p) + std::abs(q) + std::abs(r);
        p /= s;
        q /= s;
        r /= s;
        if (m == l) break;
        if (std::abs(h(m, m - 1)) * (std::abs(q) + std::abs(r)) <
            eps * (std::abs(p) * (std::abs(h(m - 1, m - 1)) + std::abs(zz) +
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
          zz = r / s;
          q /= p;
          r /= p;

          // Row modification (full width: trailing columns are live).
          for (int j = k; j < nn; ++j) {
            t = h(k, j) + q * h(k + 1, j);
            if (notlast) {
              t += r * h(k + 2, j);
              h(k + 2, j) -= t * zz;
            }
            h(k, j) -= t * x;
            h(k + 1, j) -= t * y;
          }
          // Column modification (from row 0: leading rows are live).
          for (int i = 0; i <= std::min(n, k + 3); ++i) {
            t = x * h(i, k) + y * h(i, k + 1);
            if (notlast) {
              t += zz * h(i, k + 2);
              h(i, k + 2) -= t * r;
            }
            h(i, k) -= t;
            h(i, k + 1) -= t * q;
          }
          // Accumulate transformations into every row of z.
          for (int i = 0; i < zRows; ++i) {
            t = x * z(i, k) + y * z(i, k + 1);
            if (notlast) {
              t += zz * z(i, k + 2);
              z(i, k + 2) -= t * r;
            }
            z(i, k) -= t;
            z(i, k + 1) -= t * q;
          }
        }
      }
    }
  }
  if (report) report->iterations += totalIter;
}

namespace {

/// One double-shift (sum = s1 + s2, prod = s1 * s2, both real — a
/// conjugate pair or two real shifts).
struct ShiftPair {
  double sum;
  double prod;
};

/// Pair the harvested AED eigenvalues into Francis double shifts and keep
/// the `maxPairs` of smallest magnitude (LAPACK sorts its shifts the same
/// way — small shifts target the eigenvalues deflating at the bottom).
std::vector<ShiftPair> pairShifts(
    const std::vector<std::complex<double>>& shifts, std::size_t maxPairs) {
  struct Unit {
    ShiftPair pair;
    double mag;
  };
  std::vector<Unit> units;
  std::vector<double> reals;
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    if (shifts[i].imag() != 0.0) {
      // Standardized quasi-triangular input: the conjugate is adjacent.
      const double re = shifts[i].real(), im = shifts[i].imag();
      units.push_back({{2.0 * re, re * re + im * im}, std::abs(shifts[i])});
      ++i;
    } else {
      reals.push_back(shifts[i].real());
    }
  }
  std::size_t i = 0;
  for (; i + 1 < reals.size(); i += 2)
    units.push_back({{reals[i] + reals[i + 1], reals[i] * reals[i + 1]},
                     std::max(std::abs(reals[i]), std::abs(reals[i + 1]))});
  if (i < reals.size())  // odd leftover: a double real shift
    units.push_back(
        {{2.0 * reals[i], reals[i] * reals[i]}, std::abs(reals[i])});
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) { return a.mag < b.mag; });
  if (units.size() > maxPairs) units.resize(maxPairs);
  std::vector<ShiftPair> out;
  out.reserve(units.size());
  for (const Unit& u : units) out.push_back(u.pair);
  return out;
}

/// A 3x3 bulge being chased down the diagonal. `pos` is the row of the
/// next pending reflector; the first application (at the introduction
/// row) builds the reflector from the shift polynomial instead of the
/// bulge column.
struct Bulge {
  ShiftPair shifts;
  long pos;
  bool introduced = false;
};

/// Apply the next reflector of bulge `b`, restricted to window
/// [w0, w1] of `h` and accumulated into `u` (the window transform).
/// Mirrors the double-QR-step body of the Francis iteration; the
/// annihilated bulge-column entries are written as exact zeros so the
/// matrix outside the live bulges stays exactly Hessenberg.
void applyBulgeStep(Matrix& h, Matrix& u, long w0, long w1, long ihi,
                    Bulge& b) {
  const long k = b.pos;
  const bool notlast = (k != ihi - 1);
  double p, q, r;
  if (!b.introduced) {
    // First column of (H - s1 I)(H - s2 I) e_1 at the introduction row,
    // scaled by 1 / H(k+1, k) (only the direction matters).
    const double d = h(k, k);
    p = (d * d - b.shifts.sum * d + b.shifts.prod) / h(k + 1, k) +
        h(k, k + 1);
    q = h(k + 1, k + 1) + d - b.shifts.sum;
    r = notlast ? h(k + 2, k + 1) : 0.0;
  } else {
    p = h(k, k - 1);
    q = h(k + 1, k - 1);
    r = notlast ? h(k + 2, k - 1) : 0.0;
  }
  const bool fromColumn = b.introduced;
  b.introduced = true;
  b.pos = k + 1;

  double x = std::abs(p) + std::abs(q) + std::abs(r);
  if (x == 0.0) return;  // bulge collapsed; nothing to chase this step
  p /= x;
  q /= x;
  r /= x;
  double s = std::sqrt(p * p + q * q + r * r);
  if (p < 0) s = -s;
  if (s == 0.0) return;

  if (fromColumn) {
    h(k, k - 1) = -s * x;
    // The reflector annihilates the rest of the bulge column exactly.
    h(k + 1, k - 1) = 0.0;
    if (notlast) h(k + 2, k - 1) = 0.0;
  }
  p += s;
  x = p / s;
  const double y = q / s;
  const double zz = r / s;
  q /= p;
  r /= p;

  // Row modification, window columns only (the rest is deferred to the
  // window-transform gemm flush).
  for (long j = k; j <= w1; ++j) {
    double t = h(k, j) + q * h(k + 1, j);
    if (notlast) {
      t += r * h(k + 2, j);
      h(k + 2, j) -= t * zz;
    }
    h(k, j) -= t * x;
    h(k + 1, j) -= t * y;
  }
  // Column modification, window rows only.
  const long iBot = std::min(ihi, k + 3);
  for (long i = w0; i <= iBot; ++i) {
    double t = x * h(i, k) + y * h(i, k + 1);
    if (notlast) {
      t += zz * h(i, k + 2);
      h(i, k + 2) -= t * r;
    }
    h(i, k) -= t;
    h(i, k + 1) -= t * q;
  }
  // Accumulate into the window transform.
  const long c = k - w0;
  const long uRows = static_cast<long>(u.rows());
  for (long i = 0; i < uRows; ++i) {
    double t = x * u(i, c) + y * u(i, c + 1);
    if (notlast) {
      t += zz * u(i, c + 2);
      u(i, c + 2) -= t * r;
    }
    u(i, c) -= t;
    u(i, c + 1) -= t * q;
  }
}

/// One small-bulge multishift sweep over the unreduced active block
/// [ilo, ihi]: chase a chain of 3x3 bulges (spaced three rows apart) down
/// the diagonal, accumulating each window pass into U and flushing the
/// off-window rows/columns of h and the q columns in place as gemm calls
/// (applyWindowTransform, through the run's workspace `ws`).
void multishiftSweep(Matrix& h, Matrix& z, long ilo, long ihi,
                     const std::vector<ShiftPair>& pairs, SchurReport& rep,
                     Matrix& ws) {
  std::vector<Bulge> bulges;  // front = bottom-most (oldest)
  std::size_t nextPair = 0;

  while (!bulges.empty() || nextPair < pairs.size()) {
    const long pTop = bulges.empty() ? ilo : bulges.back().pos;
    const long pBot = bulges.empty() ? ilo : bulges.front().pos;
    const long w0 =
        (nextPair < pairs.size()) ? ilo : std::max(ilo, pTop - 1);
    const long w1 =
        std::min(ihi, pBot + static_cast<long>(kSchurSweepChunk) + 3);
    const long nw = w1 - w0 + 1;
    Matrix u = Matrix::identity(static_cast<std::size_t>(nw));

    for (std::size_t step = 0; step < kSchurSweepChunk; ++step) {
      // Advance bottom-first; retire bulges that ran off the edge.
      for (Bulge& b : bulges) applyBulgeStep(h, u, w0, w1, ihi, b);
      while (!bulges.empty() && bulges.front().pos > ihi - 1)
        bulges.erase(bulges.begin());
      // Introduce the next bulge once the chain top has cleared the
      // four-row spacing (the bulge above must be pending at ilo + 4 or
      // lower so its bump column ilo + 3 stays outside the intro
      // reflector's column range ilo..ilo+2).
      if (nextPair < pairs.size() &&
          (bulges.empty() || bulges.back().pos >= ilo + 4)) {
        bulges.push_back({pairs[nextPair], ilo, false});
        ++nextPair;
        applyBulgeStep(h, u, w0, w1, ihi, bulges.back());
      }
      if (bulges.empty() && nextPair >= pairs.size()) break;
    }

    // Flush the accumulated window transform to the off-window parts.
    applyWindowTransform(h, z, u, static_cast<std::size_t>(w0), ws);
  }
  ++rep.sweeps;
  rep.shiftsApplied += 2 * pairs.size();
}

}  // namespace

void multishiftSchurHessenberg(Matrix& h, Matrix& z, SchurReport* report) {
  const long n = static_cast<long>(h.rows());
  SchurReport local;
  local.multishift = true;
  const double eps = std::numeric_limits<double>::epsilon();

  // Global fallback scale of the small-subdiagonal test (matches
  // francisSchurWindow, which substitutes the matrix norm for a zero
  // local scale).
  double norm = 0.0;
  for (long i = 0; i < n; ++i)
    for (long j = std::max(i - 1, 0L); j < n; ++j) norm += std::abs(h(i, j));

  // One workspace for every off-window flush of the run.
  Matrix ws;
  long ihi = n - 1;
  int stagnation = 0;
  long cycles = 0;
  const long maxCycles = 40L * n + 100;
  while (ihi >= 0) {
    if (++cycles > maxCycles) {
      if (report) report->absorb(local);
      throw SchurConvergenceError(
          "multishiftSchurHessenberg: QR iteration failed to converge");
    }

    // Find the unreduced block [ilo, ihi], zeroing the negligible
    // subdiagonal that bounds it.
    long ilo = ihi;
    while (ilo > 0) {
      const double sub = std::abs(h(ilo, ilo - 1));
      if (sub == 0.0) break;
      double s = std::abs(h(ilo - 1, ilo - 1)) + std::abs(h(ilo, ilo));
      if (s == 0.0) s = norm;
      if (sub < eps * s) {
        h(ilo, ilo - 1) = 0.0;
        break;
      }
      --ilo;
    }

    const long nh = ihi - ilo + 1;
    if (nh == 1) {
      ihi = ilo - 1;
      stagnation = 0;
      continue;
    }
    if (nh < static_cast<long>(kSchurMinActive)) {
      if (nh >= 8 && nh < n) {
        // Finish the block on a copy, like an AED window with no spike:
        // the windowed Francis then streams over nh-wide rows instead of
        // dragging every reflector across the full matrix, and the
        // off-window rows/columns and z are updated with one gemm each.
        const std::size_t lo = static_cast<std::size_t>(ilo);
        const std::size_t sz = static_cast<std::size_t>(nh);
        Matrix t = h.block(lo, lo, sz, sz);
        Matrix v = Matrix::identity(sz);
        francisSchurWindow(t, v, 0, sz - 1, &local);
        h.setBlock(lo, lo, t);
        applyWindowTransform(h, z, v, lo, ws);
      } else {
        francisSchurWindow(h, z, static_cast<std::size_t>(ilo),
                           static_cast<std::size_t>(ihi), &local);
      }
      ihi = ilo - 1;
      stagnation = 0;
      continue;
    }

    // Aggressive early deflation on the trailing window.
    const std::size_t nw = std::min<std::size_t>(
        schurAedWindow(static_cast<std::size_t>(nh)),
        static_cast<std::size_t>(nh - 1));
    const AedResult aed =
        aggressiveEarlyDeflation(h, z, static_cast<std::size_t>(ilo),
                                 static_cast<std::size_t>(ihi), nw, local, ws);
    if (aed.deflated > 0)
      stagnation = 0;
    else
      ++stagnation;
    ihi -= static_cast<long>(aed.deflated);
    if (aed.deflated * 100 >= kSchurAedNibble * nw) continue;
    if (ihi - ilo + 1 < static_cast<long>(kSchurMinActive)) continue;
    if (stagnation > 12) {
      // Exceptional fallback: let the windowed Francis iteration (with
      // its own exceptional-shift ladder) finish the stubborn block.
      francisSchurWindow(h, z, static_cast<std::size_t>(ilo),
                         static_cast<std::size_t>(ihi), &local);
      ihi = ilo - 1;
      stagnation = 0;
      continue;
    }

    // AED may have written exact zeros inside the restored window; let
    // the outer scan split the block rather than sweeping across one.
    bool split = false;
    for (long k = ilo + 1; k <= ihi; ++k)
      if (h(k, k - 1) == 0.0) {
        split = true;
        break;
      }
    if (split) continue;

    const std::size_t ns = schurShiftCount(static_cast<std::size_t>(nh));
    const std::vector<ShiftPair> pairs = pairShifts(aed.shifts, ns / 2);
    if (pairs.empty()) continue;
    multishiftSweep(h, z, ilo, ihi, pairs, local, ws);
  }
  if (report) report->absorb(local);
}

}  // namespace shhpass::linalg
