// Seeded random-property harness for the SVD kernel layer (the rank
// oracle of every deflation decision in the pipeline), in the mold of
// test_schur_reorder_random.cpp for the reordering layer:
//
//   * 200+ seeded cases (tests/test_support.hpp Xorshift, so the inputs
//     are bit-reproducible across platforms) spanning graded, clustered,
//     and exactly rank-deficient spectra over square/tall/wide shapes,
//     plus the degenerate ones (k = 0 sides, 1 x n, zero matrices);
//   * for every case: U/V orthogonality at 1e-12, reconstruction
//     residual at 1e-13 * sigma_1 * max(m, n), descending non-negative
//     singular values, and — where the spectrum was planted — agreement
//     with the planted values;
//   * rank stability of the shared policy (rankFromSingularValues) under
//     relative tolerance perturbations of a few eps: a deflation
//     decision must not flip when the cutoff wobbles at roundoff level;
//   * the dispatch contract: SVD() below kSvdCrossover is BIT-IDENTICAL
//     to svdUnblocked (downstream seeded tests rely on it), and the
//     blocked kernel above the crossover agrees with the unblocked
//     oracle to backward-stable roundoff;
//   * thread-pool bit-determinism: the blocked kernel's gemm calls
//     inherit the blas.hpp contract, so the whole decomposition is
//     bit-identical for every setGemmThreads() setting;
//   * the bidiagonal sweep's rotation replay: s, ut and vt are bitwise
//     those of detail::bidiagonalQrSweepUnblocked (every rotation applied
//     at once) on both sides of kSvdReplayFloor and across the column
//     blocks of applyRowOps, at gemm widths 1-4, and SVD() / compress()
//     of exactly skew matrices are bit-identical across widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::Xorshift;

Matrix xorshiftMatrix(std::size_t r, std::size_t c, Xorshift& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

bool bitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.data(), b.data(),
                      sizeof(double) * a.rows() * a.cols()) == 0);
}

// A = Q1 diag(sigma) Q2^T with Q1, Q2 seeded random orthonormal factors:
// a matrix whose singular values are exactly the planted |sigma| (up to
// the roundoff of the construction itself). Requires sigma.size() <=
// min(m, n).
Matrix withPlantedSpectrum(std::size_t m, std::size_t n,
                           const std::vector<double>& sigma, Xorshift& rng) {
  const std::size_t k = sigma.size();
  Matrix q1 = QR(xorshiftMatrix(m, k, rng)).thinQ();
  const Matrix q2 = QR(xorshiftMatrix(n, k, rng)).thinQ();
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < m; ++i) q1(i, j) *= sigma[j];
  return abt(q1, q2);
}

// Full property check for one decomposition: shape contract, descending
// non-negative spectrum, orthonormal factors, reconstruction.
void expectValidSvd(const Matrix& a, const SVD& svd, const char* label) {
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t mn = std::min(m, n);
  const auto& s = svd.singularValues();
  ASSERT_EQ(s.size(), mn) << label;
  for (std::size_t j = 0; j < s.size(); ++j) {
    EXPECT_GE(s[j], 0.0) << label << " s[" << j << "]";
    if (j + 1 < s.size()) EXPECT_GE(s[j], s[j + 1]) << label << " order";
  }
  const double dim = static_cast<double>(std::max<std::size_t>(
      {m, n, std::size_t{1}}));
  // Orthogonality: max deviation of the Gram matrices from I.
  for (const Matrix* q : {&svd.u(), &svd.v()}) {
    if (q->cols() == 0) continue;
    Matrix gram = atb(*q, *q);
    for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) -= 1.0;
    EXPECT_LE(gram.maxAbs(), 1e-12 * dim) << label << " orthogonality";
  }
  // Reconstruction: || U diag(s) V^T - A ||_max <= 1e-13 * sigma_1 * dim.
  if (mn > 0) {
    Matrix us = svd.u().block(0, 0, m, mn);
    for (std::size_t j = 0; j < mn; ++j)
      for (std::size_t i = 0; i < m; ++i) us(i, j) *= s[j];
    const Matrix rec = abt(us, svd.v().block(0, 0, n, mn));
    const double scale = std::max(s.front(), 1e-300);
    EXPECT_LE((rec - a).maxAbs(), 1e-13 * scale * dim)
        << label << " reconstruction";
  }
}

// ------------------------------------------------------- property sweep

// 168 seeded cases over mixed shapes and spectra; every case goes through
// the dispatching constructor (so both kernels are exercised across the
// crossover boundary elsewhere; these stay small and fast).
TEST(SvdRandom, PropertySweepAcrossShapesAndSpectra) {
  Xorshift rng(0x5d5d0001ull);
  int planted = 0;
  for (int cse = 0; cse < 168; ++cse) {
    const std::size_t m = 1 + rng.pick(48);
    const std::size_t n = 1 + rng.pick(48);
    const std::size_t mn = std::min(m, n);
    const int kind = cse % 4;
    Matrix a;
    std::vector<double> expect;  // planted spectrum, descending
    switch (kind) {
      case 0:  // dense uniform (full rank w.p. 1)
        a = xorshiftMatrix(m, n, rng);
        break;
      case 1: {  // graded: sigma_j = 10^(-6 j / k), condition up to 1e6
        std::vector<double> sig(mn);
        for (std::size_t j = 0; j < mn; ++j)
          sig[j] = std::pow(10.0, -6.0 * static_cast<double>(j) /
                                      std::max<std::size_t>(mn, 2));
        a = withPlantedSpectrum(m, n, sig, rng);
        expect = sig;
        break;
      }
      case 2: {  // clustered: few distinct values, heavy multiplicity
        std::vector<double> sig(mn);
        const double levels[3] = {2.0, 1.0 + 1e-9, 1e-4};
        for (std::size_t j = 0; j < mn; ++j) sig[j] = levels[(3 * j) / mn];
        a = withPlantedSpectrum(m, n, sig, rng);
        expect = sig;
        break;
      }
      default: {  // exactly rank-deficient: r planted values, rest zero
        const std::size_t r = rng.pick(mn + 1);
        std::vector<double> sig(r);
        for (std::size_t j = 0; j < r; ++j) sig[j] = rng.uniform(0.5, 2.0);
        std::sort(sig.rbegin(), sig.rend());
        a = r == 0 ? Matrix::zeros(m, n)
                   : withPlantedSpectrum(m, n, sig, rng);
        expect = sig;
        expect.resize(mn, 0.0);
        break;
      }
    }
    SVD svd(a);
    expectValidSvd(a, svd, "sweep");
    if (!expect.empty()) {
      ++planted;
      std::sort(expect.rbegin(), expect.rend());
      const double dim = static_cast<double>(std::max(m, n));
      const double scale = std::max(1.0, expect.front());
      for (std::size_t j = 0; j < expect.size(); ++j)
        EXPECT_NEAR(svd.singularValues()[j], expect[j], 1e-12 * scale * dim)
            << "case " << cse << " sigma[" << j << "]";
    }
  }
  EXPECT_GE(planted, 100);  // most of the sweep pins exact spectra
}

TEST(SvdRandom, DegenerateShapes) {
  Xorshift rng(0x5d5d0002ull);
  // Zero-extent sides (k = 0): identity factors, empty spectrum.
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{5, 0},
                      {0, 7},
                      {0, 0}}) {
    SVD svd(Matrix(m, n));
    EXPECT_TRUE(svd.singularValues().empty());
    EXPECT_EQ(svd.rank(), 0u);
    EXPECT_EQ(svd.u().rows(), m);
    EXPECT_EQ(svd.v().rows(), n);
  }
  // Zero matrices of nonzero extent: rank 0, exact zero spectrum.
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{4, 6}, {6, 4}}) {
    SVD svd(Matrix::zeros(m, n));
    expectValidSvd(Matrix::zeros(m, n), svd, "zero");
    EXPECT_EQ(svd.rank(), 0u);
  }
  // Row and column vectors: sigma_1 is the Euclidean norm.
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t n = 1 + rng.pick(40);
    Matrix row = xorshiftMatrix(1, n, rng);
    Matrix col = xorshiftMatrix(n, 1, rng);
    SVD sr(row), sc(col);
    expectValidSvd(row, sr, "1xn");
    expectValidSvd(col, sc, "nx1");
    EXPECT_NEAR(sr.singularValues()[0], row.normFrobenius(), 1e-13 * n);
    EXPECT_NEAR(sc.singularValues()[0], col.normFrobenius(), 1e-13 * n);
  }
  // 1 x 1 down to scalars.
  SVD s1(Matrix{{-3.25}});
  EXPECT_NEAR(s1.singularValues()[0], 3.25, 1e-15);
  EXPECT_EQ(s1.rank(), 1u);
}

// ------------------------------------------- shared rank-policy contract

// A deflation decision must be stable when the cutoff wobbles by a few
// eps: the planted spectra leave a wide gap around the default tolerance,
// and rankFromSingularValues must return the same count for tol * (1 -
// d) and tol * (1 + d) with d at roundoff level. Also pins the policy
// identities rank == #"sigma > tol" and the recorded margins.
TEST(SvdRandom, RankStableUnderToleranceRoundoffPerturbation) {
  Xorshift rng(0x5d5d0003ull);
  for (int cse = 0; cse < 40; ++cse) {
    const std::size_t m = 4 + rng.pick(40);
    const std::size_t n = 4 + rng.pick(40);
    const std::size_t mn = std::min(m, n);
    const std::size_t r = rng.pick(mn + 1);
    std::vector<double> sig(r);
    for (std::size_t j = 0; j < r; ++j) sig[j] = rng.uniform(0.25, 4.0);
    std::sort(sig.rbegin(), sig.rend());
    const Matrix a =
        r == 0 ? Matrix::zeros(m, n) : withPlantedSpectrum(m, n, sig, rng);
    SVD svd(a);
    EXPECT_EQ(svd.rank(), r) << "case " << cse;
    const double tol = svd.defaultTol();
    for (double wobble : {1.0 - 4e-15, 1.0 + 4e-15, 1.0 - 1e-13,
                          1.0 + 1e-13}) {
      EXPECT_EQ(svd.rank(tol * wobble), r)
          << "case " << cse << " wobble " << wobble;
    }
    // The free-function policy and the member agree by construction.
    EXPECT_EQ(rankFromSingularValues(svd.singularValues(), m, n), r);

    // Recorded margins straddle 1 from the right sides of the cutoff.
    RankReport report;
    rankFromSingularValues(svd.singularValues(), m, n, -1.0, &report);
    EXPECT_EQ(report.decisions, 1u);
    if (r > 0) EXPECT_GT(report.minKeptMargin, 1.0);
    if (r < mn) EXPECT_LT(report.maxDroppedMargin, 1.0);
  }
}

// An explicitly planted near-cutoff value: the policy keeps sigma > tol
// strictly, drops sigma <= tol, and the report margins expose how sharp
// the decision was.
TEST(SvdRandom, ExplicitToleranceBoundaryContract) {
  Xorshift rng(0x5d5d0004ull);
  const std::vector<double> sig = {1.0, 1e-6 * (1.0 + 1e-3), 1e-6, 1e-12};
  const Matrix a = withPlantedSpectrum(30, 24, sig, rng);
  SVD svd(a);
  // Cutoff exactly at the planted 1e-6: the equal value must be DROPPED
  // (strict >), the (1 + 1e-3)-inflated one kept... except roundoff makes
  // "exactly" unattainable, so probe both sides of the computed value.
  const double s2 = svd.singularValues()[2];
  EXPECT_NEAR(s2, 1e-6, 1e-12);
  EXPECT_EQ(svd.rank(std::nextafter(s2, 0.0)), 3u);  // just below: kept
  EXPECT_EQ(svd.rank(s2), 2u);                       // equal: dropped
  RankReport report;
  svd.rank(1e-6 * (1.0 + 5e-4), &report);
  EXPECT_EQ(report.decisions, 1u);
  // Sharp decision: kept margin barely above 1, dropped barely below.
  EXPECT_LT(report.minKeptMargin, 1.001);
  EXPECT_GT(report.maxDroppedMargin, 0.999);
}

// ------------------------------------------------------ kernel contracts

TEST(SvdRandom, DispatchBitIdenticalToUnblockedBelowCrossover) {
  Xorshift rng(0x5d5d0005ull);
  for (int cse = 0; cse < 24; ++cse) {
    const std::size_t m = 1 + rng.pick(kSvdCrossover - 1);
    const std::size_t n = 1 + rng.pick(kSvdCrossover - 1);
    const Matrix a = xorshiftMatrix(m, n, rng);
    const SVD dispatched(a);
    const SVD reference = svdUnblocked(a);
    EXPECT_EQ(dispatched.singularValues(), reference.singularValues())
        << m << "x" << n;
    EXPECT_TRUE(bitIdentical(dispatched.u(), reference.u())) << m << "x" << n;
    EXPECT_TRUE(bitIdentical(dispatched.v(), reference.v())) << m << "x" << n;
  }
}

TEST(SvdRandom, BlockedAgreesWithUnblockedOracleAboveCrossover) {
  Xorshift rng(0x5d5d0006ull);
  // Sizes chosen to straddle panel boundaries: exact multiple of the
  // panel, one off, and a ragged tail; tall and wide variants.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {kSvdCrossover, kSvdCrossover},
      {kSvdCrossover + 1, kSvdCrossover + 1},
      {4 * kSvdPanel + 7, 4 * kSvdPanel + 3},
      {kSvdCrossover + 40, kSvdCrossover},
      {kSvdCrossover, kSvdCrossover + 40}};
  for (const auto& [m, n] : shapes) {
    const Matrix a = xorshiftMatrix(m, n, rng);
    const SVD blocked(a);  // dispatch takes the blocked path here
    const SVD reference = svdUnblocked(a);
    expectValidSvd(a, blocked, "blocked");
    const double dim = static_cast<double>(std::max(m, n));
    const auto& sb = blocked.singularValues();
    const auto& su = reference.singularValues();
    ASSERT_EQ(sb.size(), su.size());
    for (std::size_t j = 0; j < sb.size(); ++j)
      EXPECT_NEAR(sb[j], su[j], 1e-12 * dim * std::max(1.0, su.front()))
          << m << "x" << n << " sigma[" << j << "]";
    // Same rank decisions through the shared policy.
    EXPECT_EQ(blocked.rank(), reference.rank());
  }
}

// Restores serial kernels even when a test fails mid-body.
struct GemmThreadsGuard {
  ~GemmThreadsGuard() { setGemmThreads(1); }
};

TEST(SvdRandom, BlockedBitDeterministicUnderThreadPool) {
  // The blocked path's BLAS-3 bulk goes through gemm(), whose threading
  // contract (blas.hpp) promises bit-identical results for every thread
  // count. n is chosen so the leading trailing-update gemms clear
  // kGemmThreadedFlopFloor and the pool genuinely fans out.
  GemmThreadsGuard guard;
  Xorshift rng(0x5d5d0007ull);
  const std::size_t n = 520;
  const Matrix a = xorshiftMatrix(n, n, rng);
  ASSERT_GE((n - kSvdPanel) * kSvdPanel * (n - kSvdPanel),
            kGemmThreadedFlopFloor);

  setGemmThreads(1);
  const SVD serial(a);
  expectValidSvd(a, serial, "threaded-serial");
  for (std::size_t threads : {2u, 3u, 7u}) {
    setGemmThreads(threads);
    EXPECT_EQ(gemmThreads(), threads);
    const SVD run1(a);
    const SVD run2(a);
    EXPECT_EQ(run1.singularValues(), serial.singularValues())
        << threads << " threads vs serial";
    EXPECT_TRUE(bitIdentical(run1.u(), serial.u())) << threads << " threads";
    EXPECT_TRUE(bitIdentical(run1.v(), serial.v())) << threads << " threads";
    EXPECT_TRUE(bitIdentical(run1.u(), run2.u())) << threads << " rerun";
    EXPECT_TRUE(bitIdentical(run1.v(), run2.v())) << threads << " rerun";
  }
}

// One seeded bidiagonal core (q values, sentinel e[q-1] = 0) with random
// factor rows of length m (ut) and q (vt). Zeros planted in d force the
// sweep's split (case 2) and bottom-deflation (case 1) branches; random
// signs give the sign flips, and the final sort gives the swaps.
struct SweepCase {
  std::vector<double> d, e;
  Matrix ut, vt;
};

SweepCase makeSweepCase(std::size_t q, std::size_t m, Xorshift& rng) {
  SweepCase c{std::vector<double>(q), std::vector<double>(q, 0.0),
              xorshiftMatrix(q, m, rng), xorshiftMatrix(q, q, rng)};
  for (std::size_t i = 0; i < q; ++i) c.d[i] = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i + 1 < q; ++i) c.e[i] = rng.uniform(-1.0, 1.0);
  if (q > 8) {
    c.d[q / 3] = 0.0;
    c.d[q - 1] = 0.0;
  }
  return c;
}

TEST(SweepReplay, BitIdenticalToImmediateRotationsAtEveryWidth) {
  // (q, U row length): square cores just below, at and above the replay
  // floor; cores whose factor widths end one short of, on, and one past
  // a column block; and wide U factors (a tall SVD's thin U). Every one
  // above the floor fills the op log several times.
  GemmThreadsGuard guard;
  struct Shape {
    std::size_t q, m;
  };
  const std::size_t b = kRowOpsBlockCols;
  const Shape shapes[] = {{159, 159},
                          {160, 160},
                          {161, 161},
                          {3 * b - 1, 3 * b - 1},
                          {3 * b, 3 * b},
                          {3 * b + 1, 3 * b + 1},
                          {130, 5 * b + 1},
                          {40, 1500},
                          {300, 700}};
  ASSERT_LT(std::size_t{159} * (159 + 159), kSvdReplayFloor);
  ASSERT_GE(std::size_t{160} * (160 + 160), kSvdReplayFloor);
  Xorshift rng(0x5eed5eedull);
  for (const Shape& sh : shapes) {
    const SweepCase c = makeSweepCase(sh.q, sh.m, rng);
    std::vector<double> sWant = c.d, eWant = c.e;
    Matrix utWant = c.ut, vtWant = c.vt;
    setGemmThreads(1);
    detail::bidiagonalQrSweepUnblocked(sWant, eWant, utWant, vtWant);
    for (std::size_t width : {1u, 2u, 3u, 4u}) {
      setGemmThreads(width);
      std::vector<double> s = c.d, e = c.e;
      Matrix ut = c.ut, vt = c.vt;
      detail::bidiagonalQrSweepTransposed(s, e, ut, vt);
      EXPECT_EQ(s, sWant) << "q=" << sh.q << " m=" << sh.m << " w=" << width;
      EXPECT_TRUE(bitIdentical(ut, utWant))
          << "q=" << sh.q << " m=" << sh.m << " w=" << width;
      EXPECT_TRUE(bitIdentical(vt, vtWant))
          << "q=" << sh.q << " m=" << sh.m << " w=" << width;
      // Values only: the factors are untouched and s is the same bits.
      std::vector<double> s0 = c.d, e0 = c.e;
      Matrix none0, none1;
      detail::bidiagonalQrSweepTransposed(s0, e0, none0, none1, false);
      EXPECT_EQ(s0, sWant) << "values only, q=" << sh.q;
    }
  }
}

TEST(SweepReplay, SvdAndSkewCompressionBitIdenticalAcrossWidths) {
  // End to end through the two callers of the sweep: a full SVD whose
  // core is above the replay floor, and the skew-tridiagonal compression
  // of an exactly skew matrix (a half-size core of order 260).
  GemmThreadsGuard guard;
  Xorshift rng(0x5ce1ull);
  const Matrix a = xorshiftMatrix(300, 220, rng);
  Matrix skew = xorshiftMatrix(521, 521, rng);
  skewSymmetrize(skew);
  CompressionOptions opts;
  opts.wantRange = opts.wantCorange = true;
  opts.wantNullspace = opts.wantLeftNullspace = true;
  setGemmThreads(1);
  const SVD svd1(a);
  const Compression c1 = compress(skew, opts);
  ASSERT_EQ(c1.kernelUsed, CompressionKernel::SkewTridiagonal);
  expectValidSvd(a, svd1, "replayed core");
  for (std::size_t width : {2u, 3u, 4u}) {
    setGemmThreads(width);
    const SVD svd(a);
    EXPECT_EQ(svd.singularValues(), svd1.singularValues()) << width;
    EXPECT_TRUE(bitIdentical(svd.u(), svd1.u())) << width;
    EXPECT_TRUE(bitIdentical(svd.v(), svd1.v())) << width;
    const Compression c = compress(skew, opts);
    EXPECT_EQ(c.sigma, c1.sigma) << width;
    EXPECT_EQ(c.rank, c1.rank) << width;
    EXPECT_TRUE(bitIdentical(c.range, c1.range)) << width;
    EXPECT_TRUE(bitIdentical(c.corange, c1.corange)) << width;
    EXPECT_TRUE(bitIdentical(c.nullspace, c1.nullspace)) << width;
    EXPECT_TRUE(bitIdentical(c.leftNullspace, c1.leftNullspace)) << width;
  }
}

}  // namespace
}  // namespace shhpass::linalg
