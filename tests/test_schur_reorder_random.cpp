// Randomized eigen-verification harness for the residual-checked Schur
// reordering (tier-1, fixed seeds).
//
// Each case builds a random quasi-triangular matrix with an EXACTLY known
// spectrum — clustered, near-degenerate, or jw-axis-straddling (the
// Hamiltonian mirror-pair shape that broke the pre-residual-check
// implementation) — reorders it with the stable/antistable selector, and
// asserts the four contract properties:
//   (a) the accumulated Q stays orthogonal to 1e-12,
//   (b) the similarity residual ||Q^T A Q - T'|| stays at round-off,
//   (c) the eigenvalue multiset is preserved to a drift tolerance,
//   (d) the stable/antistable split count matches the ground truth counted
//       from the constructed spectrum BEFORE reordering.
// A rejected swap (ReorderReport::rejectedSwaps > 0) relaxes only (d) to
// "no more than the truth"; (a)-(c) are unconditional — rejection must
// never corrupt the factorization.
//
// The windowed reorderSchur is also compared against the one-block-at-a-
// time bubble it replaced (oracle::reorderSchurBubble,
// decoupling_oracle.hpp) across orders that cross its window edges, and
// pinned bit-identical across gemm thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/schur.hpp"
#include "control/hamiltonian.hpp"
#include "decoupling_oracle.hpp"
#include "linalg/schur_reorder.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::Xorshift;

// A complex entry with im != 0 is the +im representative of a conjugate
// pair and contributes a 2x2 block (two spectrum members).
using Spectrum = std::vector<std::complex<double>>;

// Full multiset of eigenvalues the spectrum spec describes.
Spectrum expand(const Spectrum& spec) {
  Spectrum full;
  for (const auto& l : spec) {
    full.push_back(l);
    if (l.imag() != 0.0) full.push_back(std::conj(l));
  }
  return full;
}

// Quasi-triangular matrix with exactly the spectrum of `spec`, in shuffled
// block order (or in the given order when `shuffle` is false), with random coupling above the blocks. Complex pairs become
// standardized 2x2 blocks with randomized off-diagonal balance; adjacent
// real eigenvalues are sometimes fused into a rotated (non-triangular) 2x2
// block with real eigenvalues, exercising the dlanv2 split path.
Matrix buildQuasiTriangular(Spectrum spec, Xorshift& rng,
                            bool fuseRealPairs, bool shuffle = true) {
  if (shuffle)
    for (std::size_t i = spec.size(); i > 1; --i)
      std::swap(spec[i - 1], spec[rng.pick(i)]);
  std::size_t n = 0;
  for (const auto& l : spec) n += l.imag() != 0.0 ? 2 : 1;
  Matrix t(n, n);
  std::vector<std::size_t> blockEnd(n);  // first column right of row's block
  std::size_t pos = 0, i = 0;
  while (i < spec.size()) {
    const std::complex<double> l = spec[i];
    if (l.imag() != 0.0) {
      // Standardized complex-pair block [re b; c re], b c = -im^2.
      const double s = std::exp(rng.uniform(-1.2, 1.2));
      t(pos, pos) = l.real();
      t(pos + 1, pos + 1) = l.real();
      t(pos, pos + 1) = l.imag() * s;
      t(pos + 1, pos) = -l.imag() / s;
      blockEnd[pos] = blockEnd[pos + 1] = pos + 2;
      pos += 2;
      ++i;
    } else if (fuseRealPairs && i + 1 < spec.size() &&
               spec[i + 1].imag() == 0.0 && rng.flip()) {
      // Fused real-eigenvalue block: rotate [l1 g; 0 l2] by a plane
      // rotation so the subdiagonal is nonzero but the eigenvalues stay
      // exactly l1, l2.
      const double l1 = l.real(), l2 = spec[i + 1].real();
      const double g = rng.uniform(-2.0, 2.0);
      const double th = rng.uniform(0.3, 1.2);
      const Matrix d{{l1, g}, {0.0, l2}};
      const Matrix r{{std::cos(th), -std::sin(th)},
                     {std::sin(th), std::cos(th)}};
      const Matrix m = multiply(r, true, d, false) * r;
      t(pos, pos) = m(0, 0);
      t(pos, pos + 1) = m(0, 1);
      t(pos + 1, pos) = m(1, 0);
      t(pos + 1, pos + 1) = m(1, 1);
      blockEnd[pos] = blockEnd[pos + 1] = pos + 2;
      pos += 2;
      i += 2;
    } else {
      t(pos, pos) = l.real();
      blockEnd[pos] = pos + 1;
      pos += 1;
      ++i;
    }
  }
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = blockEnd[r]; c < n; ++c)
      t(r, c) = rng.uniform(-2.5, 2.5);
  return t;
}

// --- spectrum families ---------------------------------------------------
// All families keep |Re| >= 1e-5 so the stable/antistable ground truth is
// robust against the (certified sub-1e-10) reordering drift.

double awayFromAxis(Xorshift& rng, double minAbs, double maxAbs) {
  const double mag =
      std::pow(10.0, rng.uniform(std::log10(minAbs), std::log10(maxAbs)));
  return rng.flip() ? mag : -mag;
}

// Tight clusters of real and complex eigenvalues (spread 1e-6..1e-3): the
// bubbling path repeatedly swaps nearly equal neighbors on the same side
// of the axis.
Spectrum clusteredSpectrum(Xorshift& rng) {
  Spectrum spec;
  std::size_t dims = 0;
  const std::size_t clusters = 2 + rng.pick(3);
  for (std::size_t c = 0; c < clusters && dims < 20; ++c) {
    const double re = awayFromAxis(rng, 0.05, 3.0);
    const double im = rng.flip() ? 0.0 : rng.uniform(0.5, 3.0);
    const double spread = std::pow(10.0, rng.uniform(-6.0, -3.0));
    const std::size_t members = 2 + rng.pick(3);
    for (std::size_t m = 0; m < members && dims < 20; ++m) {
      const double dre = spread * rng.uniform(-1.0, 1.0);
      if (im == 0.0) {
        spec.push_back({re + dre, 0.0});
        dims += 1;
      } else {
        spec.push_back({re + dre, im + spread * rng.uniform(-1.0, 1.0)});
        dims += 2;
      }
    }
  }
  return spec;
}

// Nearly identical eigenvalue pairs (gap down to 1e-9) plus complex pairs
// with tiny imaginary parts (the fuse/split borderline) and well-separated
// fillers.
Spectrum nearDegenerateSpectrum(Xorshift& rng) {
  Spectrum spec;
  std::size_t dims = 0;
  const std::size_t pairs = 2 + rng.pick(3);
  for (std::size_t p = 0; p < pairs && dims < 18; ++p) {
    const double re = awayFromAxis(rng, 1e-2, 2.0);
    const double gap = std::pow(10.0, rng.uniform(-9.0, -6.0));
    switch (rng.pick(3)) {
      case 0:  // two nearly equal reals
        spec.push_back({re, 0.0});
        spec.push_back({re + gap, 0.0});
        dims += 2;
        break;
      case 1:  // complex pair with a tiny imaginary part (near-real)
        spec.push_back({re, gap});
        dims += 2;
        break;
      default:  // two nearly equal complex pairs
        const double im = rng.uniform(0.5, 2.0);
        spec.push_back({re, im});
        spec.push_back({re + gap, im + gap});
        dims += 4;
        break;
    }
  }
  spec.push_back({awayFromAxis(rng, 0.1, 3.0), 0.0});
  return spec;
}

// Hamiltonian-like mirror pairs straddling the imaginary axis: for every
// stable eigenvalue there is an antistable one at -conj(lambda), with
// |Re| down to 1e-5 — exactly the Eq.-(22) shape where the pre-fix
// implementation drifted eigenvalues across the axis.
Spectrum axisStraddlingSpectrum(Xorshift& rng) {
  Spectrum spec;
  std::size_t dims = 0;
  const std::size_t pairs = 2 + rng.pick(3);
  for (std::size_t p = 0; p < pairs && dims < 20; ++p) {
    const double re =
        std::pow(10.0, rng.uniform(-5.0, -0.5));  // distance to the axis
    if (rng.flip()) {
      const double im = rng.uniform(0.3, 4.0);
      spec.push_back({-re, im});
      spec.push_back({re, im * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0))});
      dims += 4;
    } else {
      spec.push_back({-re, 0.0});
      spec.push_back({re, 0.0});
      dims += 2;
    }
  }
  return spec;
}

// --- the harness ---------------------------------------------------------

bool isStable(const std::complex<double>& l) { return l.real() < 0.0; }

// Greedy nearest-neighbor multiset matching; returns the largest matched
// distance (or +inf on count mismatch, which the caller asserts against).
double multisetDistance(Spectrum a, Spectrum b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  std::vector<bool> used(b.size(), false);
  for (const auto& la : a) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bestJ = b.size();
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (used[j]) continue;
      const double d = std::abs(la - b[j]);
      if (d < best) {
        best = d;
        bestJ = j;
      }
    }
    used[bestJ] = true;
    worst = std::max(worst, best);
  }
  return worst;
}

void expectValidQuasiTriangular(const Matrix& t) {
  for (std::size_t i = 2; i < t.rows(); ++i)
    for (std::size_t j = 0; j + 1 < i; ++j)
      ASSERT_EQ(t(i, j), 0.0) << "below-quasi-diagonal at (" << i << "," << j
                              << ")";
  for (std::size_t i = 0; i + 2 < t.rows(); ++i)
    ASSERT_FALSE(t(i + 1, i) != 0.0 && t(i + 2, i + 1) != 0.0)
        << "overlapping 2x2 blocks at " << i;
}

struct HarnessTally {
  std::size_t cases = 0;
  std::size_t rejectedCases = 0;
  std::size_t totalSwaps = 0;
};

void runCase(const Spectrum& spec, Xorshift& rng, bool fuseRealPairs,
             HarnessTally& tally) {
  const Matrix a = buildQuasiTriangular(spec, rng, fuseRealPairs);
  const std::size_t n = a.rows();
  const Spectrum truth = expand(spec);
  const std::size_t stableTruth = static_cast<std::size_t>(
      std::count_if(truth.begin(), truth.end(), isStable));

  Matrix t = a;
  Matrix q = Matrix::identity(n);
  ReorderReport rep;
  const std::size_t k = reorderSchur(t, q, isStable, &rep);

  ++tally.cases;
  tally.totalSwaps += rep.swaps;
  if (!rep.clean()) ++tally.rejectedCases;

  const double scale = std::max(1.0, a.maxAbs());

  // (a) Orthogonality of the accumulated transform.
  const Matrix gram = atb(q, q);
  EXPECT_TRUE(gram.approxEqual(Matrix::identity(n), 1e-12))
      << "Q drifted from orthogonality; max dev "
      << (gram - Matrix::identity(n)).maxAbs();

  // (b) Similarity residual: T' really is Q^T A Q.
  const Matrix res = multiply(atb(q, a), false, q, false) - t;
  EXPECT_LE(res.maxAbs(), 1e-11 * scale) << "similarity residual too large";

  // Structural sanity: still a well-formed quasi-triangular matrix, and
  // the report's own residual is certified small.
  expectValidQuasiTriangular(t);
  EXPECT_LE(rep.maxResidual, 1e-10 * scale);

  // (c) Eigenvalue multiset preserved within the drift tolerance.
  const Spectrum after = quasiTriangularEigenvalues(t);
  EXPECT_LE(multisetDistance(truth, after), 1e-8 * scale)
      << "eigenvalue drift beyond tolerance";

  // (d) Stable/antistable split vs the pre-reorder ground truth.
  if (rep.clean()) {
    EXPECT_EQ(k, stableTruth) << "split miscount on a clean reorder";
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (i < k)
        EXPECT_LT(after[i].real(), 0.0) << "antistable eigenvalue at " << i;
      else
        EXPECT_GE(after[i].real(), 0.0) << "stable eigenvalue left at " << i;
    }
  } else {
    // Rejected exchanges leave the ordering incomplete, never the
    // spectrum wrong: the realized leading subspace can only be smaller.
    EXPECT_LE(k, stableTruth);
  }
}

TEST(SchurReorderRandom, ClusteredSpectra) {
  HarnessTally tally;
  for (unsigned c = 0; c < 70; ++c) {
    Xorshift rng(0xC1u + 977u * c);
    runCase(clusteredSpectrum(rng), rng, /*fuseRealPairs=*/true, tally);
  }
  // Clustered-but-separated spectra must reorder exactly.
  EXPECT_EQ(tally.rejectedCases, 0u);
  EXPECT_GT(tally.totalSwaps, tally.cases);
}

TEST(SchurReorderRandom, NearDegenerateSpectra) {
  HarnessTally tally;
  for (unsigned c = 0; c < 70; ++c) {
    Xorshift rng(0xD3u + 1409u * c);
    runCase(nearDegenerateSpectrum(rng), rng, /*fuseRealPairs=*/true, tally);
  }
  // The properties (a)-(c) held unconditionally in every case; near
  // degeneracy may legitimately reject a handful of exchanges, but never
  // the majority.
  EXPECT_LE(tally.rejectedCases, tally.cases / 10);
}

TEST(SchurReorderRandom, AxisStraddlingSpectra) {
  HarnessTally tally;
  for (unsigned c = 0; c < 60; ++c) {
    Xorshift rng(0xE5u + 2003u * c);
    runCase(axisStraddlingSpectrum(rng), rng, /*fuseRealPairs=*/false,
            tally);
  }
  EXPECT_LE(tally.rejectedCases, tally.cases / 10);
}

TEST(SchurReorderRandom, IllPosedExchangeIsRejectedNotCorrupted) {
  // A stable and an antistable complex pair separated by 2e-14: the
  // exchange's Sylvester operator is numerically singular, so the swap
  // must be REJECTED, leaving the factorization bit-identical — the
  // pre-residual-check implementation force-zeroed its way through and
  // corrupted the spectrum instead.
  const double d = 1e-14;
  Matrix t{{d, 1.0, 0.7, -0.3},
           {-1.0, d, 0.2, 0.9},
           {0.0, 0.0, -d, 1.0},
           {0.0, 0.0, -1.0, -d}};
  Matrix q = Matrix::identity(4);
  const Matrix tBefore = t;
  ReorderReport rep;
  const std::size_t k = reorderSchur(
      t, q, [](std::complex<double> l) { return l.real() < 0.0; }, &rep);
  EXPECT_GE(rep.rejectedSwaps, 1u);
  EXPECT_EQ(k, 0u);
  EXPECT_TRUE(t.approxEqual(tBefore, 0.0)) << "rejection modified T";
  EXPECT_TRUE(q.approxEqual(Matrix::identity(4), 0.0))
      << "rejection modified Q";
}

TEST(SchurReorderRandom, NegligibleOverlapLeftoverIsRepaired) {
  // An eps-level subdiagonal BETWEEN two genuine 2x2 blocks (a Francis
  // deflation leftover: its smallness test ran under shifted diagonals)
  // makes the block structure ambiguous. reorderSchur must repair it and
  // then classify/reorder the true blocks correctly.
  Matrix t{{2.0, 1.0, 0.4, -0.2},
           {-1.0, 2.0, 0.1, 0.6},
           {0.0, 1e-15, -1.0, 1.0},
           {0.0, 0.0, -1.0, -1.0}};
  Matrix q = Matrix::identity(4);
  ReorderReport rep;
  const std::size_t k = reorderSchur(
      t, q, [](std::complex<double> l) { return l.real() < 0.0; }, &rep);
  EXPECT_EQ(k, 2u);
  EXPECT_TRUE(rep.clean());
  const auto eig = quasiTriangularEigenvalues(t);
  EXPECT_LT(eig[0].real(), 0.0);
  EXPECT_LT(eig[1].real(), 0.0);
  EXPECT_GT(eig[2].real(), 0.0);
  EXPECT_GT(eig[3].real(), 0.0);
}

TEST(SchurReorderRandom, GenuinelyMalformedInputIsRefused) {
  // Two overlapping "blocks" with O(1) subdiagonals are not a real Schur
  // form; repairing by zeroing would corrupt the spectrum while reporting
  // clean(). The layer must refuse instead.
  Matrix t{{2.0, 1.0, 0.4}, {-1.0, 2.0, 0.1}, {0.0, 0.8, -1.0}};
  Matrix q = Matrix::identity(3);
  EXPECT_THROW(
      reorderSchur(t, q,
                   [](std::complex<double> l) { return l.real() < 0.0; }),
      std::invalid_argument);
}

// --- windowed reordering vs the one-block-at-a-time oracle ----------------

std::size_t twoByTwoBlocks(const Matrix& t) {
  std::size_t count = 0;
  for (std::size_t i = 0; i + 1 < t.rows(); ++i)
    if (t(i + 1, i) != 0.0) ++count;
  return count;
}

// Reorder (t0, q0) — a real Schur factorization of `a` — with both loops
// and compare: equal realized dimension and rejection count; equal swap
// count when no 2x2 block split on either side; the leading eigenvalues
// agree within the two reports' drift bounds; and the windowed result is a
// similarity of `a` to c * n * eps * ||A||.
void expectMatchesOracle(const Matrix& a, const Matrix& t0, const Matrix& q0,
                         const EigenvalueSelector& select) {
  const std::size_t n = a.rows();
  Matrix t = t0, q = q0;
  ReorderReport rep;
  const std::size_t k = reorderSchur(t, q, select, &rep);
  Matrix to = t0, qo = q0;
  ReorderReport repo;
  const std::size_t ko = oracle::reorderSchurBubble(to, qo, select, &repo);

  EXPECT_EQ(k, ko);
  EXPECT_EQ(rep.rejectedSwaps, repo.rejectedSwaps);
  Matrix tStd = t0, qStd = q0;
  standardizeQuasiTriangular(tStd, qStd);
  const std::size_t pairs = twoByTwoBlocks(tStd);
  if (twoByTwoBlocks(t) == pairs && twoByTwoBlocks(to) == pairs)
    EXPECT_EQ(rep.swaps, repo.swaps) << "split-free input";

  const double eps = std::numeric_limits<double>::epsilon();
  const double normA = std::max(1.0, a.normFrobenius());
  const double roundoff = 10.0 * static_cast<double>(n) * eps * normA;
  const Matrix res = multiply(atb(q, a), false, q, false) - t;
  EXPECT_LE(res.maxAbs(), roundoff) << "similarity residual";
  EXPECT_TRUE(atb(q, q).approxEqual(Matrix::identity(n), roundoff / normA));
  expectValidQuasiTriangular(t);

  const std::size_t lead = std::min(k, ko);
  const Spectrum mine = quasiTriangularEigenvalues(t.block(0, 0, lead, lead));
  const Spectrum theirs =
      quasiTriangularEigenvalues(to.block(0, 0, lead, lead));
  EXPECT_LE(multisetDistance(mine, theirs),
            rep.eigenvalueDrift + repo.eigenvalueDrift + roundoff)
      << "leading eigenvalues moved beyond the drift bound";
}

TEST(SchurReorderOracle, RandomSchurFormsAcrossWindowEdges) {
  constexpr std::size_t nw = kReorderWindowRows;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{7}, std::size_t{31},
                        nw - 1, nw, nw + 1, std::size_t{100}, 2 * nw + 3,
                        std::size_t{200}, std::size_t{300}}) {
    SCOPED_TRACE(n);
    const Matrix a = testing::randomMatrix(n, n, 7100 + static_cast<unsigned>(n));
    const RealSchurResult rs = realSchur(a);
    expectMatchesOracle(a, rs.t, rs.q, isStable);
  }
}

TEST(SchurReorderOracle, HamiltonianSpectra) {
  for (std::size_t np : {10u, 33u, 70u, 150u}) {
    SCOPED_TRACE(np);
    const unsigned seed = 7300 + static_cast<unsigned>(np);
    const Matrix b = testing::randomMatrix(np, 2, seed + 1);
    const Matrix c = testing::randomMatrix(2, np, seed + 2);
    const Matrix h = control::makeHamiltonian(
        testing::randomStable(np, seed), -1.0 * abt(b, b), -1.0 * atb(c, c));
    const RealSchurResult rs = realSchur(h);
    expectMatchesOracle(h, rs.t, rs.q, isStable);
    Matrix t = rs.t, q = rs.q;
    EXPECT_EQ(reorderSchur(t, q, isStable), np);
  }
}

TEST(SchurReorderOracle, TwoByTwoBlocksStraddlingWindowEdges) {
  // Antistable complex pairs on top, stable blocks at the bottom: the
  // first window's nominal top row (its bottom minus kReorderWindowRows)
  // lands inside a 2x2 block, so the window must start one row lower.
  Xorshift rng(0x57AD);
  for (std::size_t pairs : {31u, 50u, 70u}) {
    for (std::size_t tail : {1u, 2u, 5u}) {
      SCOPED_TRACE(pairs * 100 + tail);
      Spectrum spec;
      for (std::size_t i = 0; i < pairs; ++i)
        spec.push_back({rng.uniform(0.1, 3.0), rng.uniform(0.5, 3.0)});
      for (std::size_t i = 0; i < tail; ++i)
        spec.push_back(i % 2 == 0
                           ? std::complex<double>{-rng.uniform(0.1, 3.0), 0.0}
                           : std::complex<double>{-rng.uniform(0.1, 3.0),
                                                  rng.uniform(0.5, 3.0)});
      const Matrix a = buildQuasiTriangular(spec, rng, /*fuseRealPairs=*/false,
                                            /*shuffle=*/false);
      expectMatchesOracle(a, a, Matrix::identity(a.rows()), isStable);
    }
  }
}

TEST(SchurReorderOracle, AllOrNoBlocksSelected) {
  for (std::size_t n : {5u, 64u, 131u}) {
    SCOPED_TRACE(n);
    const Matrix a = testing::randomMatrix(n, n, 7500 + static_cast<unsigned>(n));
    const RealSchurResult rs = realSchur(a);
    for (bool all : {false, true}) {
      const EigenvalueSelector select = [all](std::complex<double>) {
        return all;
      };
      expectMatchesOracle(a, rs.t, rs.q, select);
      Matrix t = rs.t, q = rs.q;
      ReorderReport rep;
      EXPECT_EQ(reorderSchur(t, q, select, &rep), all ? n : 0u);
      EXPECT_EQ(rep.swaps, 0u);
    }
  }
}

TEST(SchurReorderOracle, ClusteredAndNearDegenerateSpectra) {
  // The generators of the harness above: tight clusters and nearly shared
  // eigenvalues exercise rejected swaps and 2x2 splits.
  for (unsigned c = 0; c < 70; ++c) {
    SCOPED_TRACE(c);
    Xorshift rng(0xC1u + 977u * c);
    const Matrix a = buildQuasiTriangular(clusteredSpectrum(rng), rng, true);
    expectMatchesOracle(a, a, Matrix::identity(a.rows()), isStable);
    Xorshift rng2(0xD3u + 1409u * c);
    const Matrix b = buildQuasiTriangular(nearDegenerateSpectrum(rng2), rng2,
                                          true);
    expectMatchesOracle(b, b, Matrix::identity(b.rows()), isStable);
  }
}

TEST(SchurReorderOracle, BitwiseEqualAcrossGemmThreads) {
  // Large enough that the window flush's Q^T gemm (64 x 64 x n) fans out
  // over the gemm pool: eight stable blocks at the bottom travel through
  // every window to the top.
  const std::size_t n = 1760;
  Xorshift rng(0xB17);
  Matrix t0(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t0(i, i) = i + 8 < n ? rng.uniform(0.1, 3.0) : -rng.uniform(0.1, 3.0);
    for (std::size_t j = i + 1; j < n; ++j) t0(i, j) = rng.uniform(-1.0, 1.0);
  }
  const std::size_t before = gemmThreads();
  auto run = [&](std::size_t threads) {
    setGemmThreads(threads);
    Matrix t = t0, q = Matrix::identity(n);
    EXPECT_EQ(reorderSchur(t, q, isStable), 8u);
    return std::make_pair(t, q);
  };
  const auto serial = run(1);
  const auto threaded = run(3);
  setGemmThreads(before);
  EXPECT_TRUE(serial.first.approxEqual(threaded.first, 0.0));
  EXPECT_TRUE(serial.second.approxEqual(threaded.second, 0.0));
}

}  // namespace
}  // namespace shhpass::linalg
