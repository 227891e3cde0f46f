// Equivalence and determinism tests for the blocked BLAS-3 kernel layer:
//
//   * gemm/gemmBlocked vs the gemmReference oracle over seeded random
//     shapes (including degenerate k = 0, 1 x n, tall/skinny, aliased
//     inputs, and shapes straddling every blocking boundary);
//   * compact-WY block reflector application vs the per-reflector loop;
//   * blocked Hessenberg / QR vs their unblocked references;
//   * bit-determinism of the threaded gemm for every thread count;
//   * the per-element accumulation contract, bit for bit, against an
//     oracle that replays each element's multiply-add sequence;
//   * the view form of gemm (offset blocks with ld > cols inside larger
//     matrices) against the Matrix form on copied blocks, bit for bit;
//   * the in-place blocked Hessenberg reduction against the
//     block-copying oracle of tests/hessenberg_oracle.hpp, bit for bit.
//
// Tolerance convention: blocked and reference kernels sum each element in
// a different order, so they agree to the inner-product forward-error
// bound, not bitwise. We assert |diff| <= 1e-13 * max(1, k) entrywise
// (k the inner dimension): exactly 1e-13 for small products, scaled by
// the provable error growth for long accumulations.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/hessenberg.hpp"
#include "linalg/householder.hpp"
#include "linalg/qr.hpp"
#include "hessenberg_oracle.hpp"
#include "linalg/staircase.hpp"
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

double maxAbsDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double w = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      w = std::max(w, std::abs(a(i, j) - b(i, j)));
  return w;
}

bool bitIdentical(const Matrix& a, const Matrix& b) {
  // An empty matrix may hold no storage at all: memcmp must not see it.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      sizeof(double) * a.rows() * a.cols()) == 0);
}

// Runs one (shape, op, alpha/beta) case through gemmReference and
// gemmBlocked and asserts agreement within the scaled bound.
void expectBlockedMatchesReference(std::size_t m, std::size_t k,
                                   std::size_t n, bool ta, bool tb,
                                   double alpha, double beta, Xorshift& rng) {
  const Matrix a = ta ? xorshiftMatrix(k, m, rng) : xorshiftMatrix(m, k, rng);
  const Matrix b = tb ? xorshiftMatrix(n, k, rng) : xorshiftMatrix(k, n, rng);
  const Matrix c0 = xorshiftMatrix(m, n, rng);
  Matrix cRef = c0, cBlk = c0;
  gemmReference(alpha, a, ta, b, tb, beta, cRef);
  gemmBlocked(alpha, a, ta, b, tb, beta, cBlk);
  const double tol = 1e-13 * std::max<double>(1.0, static_cast<double>(k));
  EXPECT_LE(maxAbsDiff(cRef, cBlk), tol)
      << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
      << " tb=" << tb << " alpha=" << alpha << " beta=" << beta;
}

// Restores serial kernels even when a test fails mid-body.
struct GemmThreadsGuard {
  ~GemmThreadsGuard() { setGemmThreads(1); }
};

TEST(GemmBlocked, MatchesReferenceOnSeededRandomShapes) {
  Xorshift rng(0xb10c4ed);
  const double alphas[] = {1.0, -0.75, 2.5};
  const double betas[] = {0.0, 1.0, -0.3};
  for (int cse = 0; cse < 48; ++cse) {
    const std::size_t m = 1 + rng.pick(150);
    const std::size_t k = 1 + rng.pick(150);
    const std::size_t n = 1 + rng.pick(150);
    expectBlockedMatchesReference(m, k, n, rng.flip(), rng.flip(),
                                  alphas[rng.pick(3)], betas[rng.pick(3)],
                                  rng);
  }
}

TEST(GemmBlocked, ShapesStraddlingBlockingBoundaries) {
  // One past each tile/panel edge: MR/NR, MC, KC, NC.
  Xorshift rng(7);
  // The probes around kGemmWideMinCols cross the wide tile's selection
  // edge; those past it run on the wide tile wherever the CPU has it
  // (every m below clears kGemmWideMinRows).
  const std::size_t probes[] = {kGemmMr + 1,
                                kGemmNr + 1,
                                kGemmMc - 1,
                                kGemmMc + 1,
                                kGemmKc + 1,
                                kGemmNc + 1,
                                2 * kGemmMr + 3,
                                kGemmWideMinCols - 1,
                                kGemmWideMinCols + 1,
                                kGemmWideMinCols + kGemmWideNr + 1,
                                kGemmWideMinCols + 2 * kGemmWideNr + 3};
  for (std::size_t m : {kGemmMc - 1, kGemmMc + 1, std::size_t{70},
                        kGemmWideMinRows + kGemmWideMr + 1})
    for (std::size_t k : {kGemmKc - 1, kGemmKc + 1})
      for (std::size_t n : probes)
        expectBlockedMatchesReference(m, k, n, false, false, 1.0, 0.0, rng);
}

TEST(GemmBlocked, DegenerateShapes) {
  Xorshift rng(11);
  // k = 0: the product contributes nothing; C is scaled by beta only.
  Matrix a(5, 0), b(0, 7);
  Matrix c = xorshiftMatrix(5, 7, rng);
  Matrix expected = c;
  expected *= -0.5;
  gemmBlocked(1.0, a, false, b, false, -0.5, c);
  EXPECT_TRUE(bitIdentical(c, expected));

  // Row-vector, column-vector, and empty-output shapes.
  expectBlockedMatchesReference(1, 90, 90, false, false, 1.0, 0.0, rng);
  expectBlockedMatchesReference(90, 90, 1, false, true, -1.0, 1.0, rng);
  expectBlockedMatchesReference(1, 1, 1, true, true, 2.0, 0.5, rng);
  Matrix e0(0, 4), eb(3, 0);
  Matrix ec(0, 0);
  gemmBlocked(1.0, e0, false, xorshiftMatrix(4, 0, rng), false, 0.0, ec);
  EXPECT_TRUE(ec.empty());
}

TEST(GemmBlocked, TallAndSkinnyShapes) {
  Xorshift rng(13);
  expectBlockedMatchesReference(700, 3, 5, false, false, 1.0, 0.0, rng);
  expectBlockedMatchesReference(3, 700, 5, true, false, 1.0, 1.0, rng);
  expectBlockedMatchesReference(5, 3, 700, false, false, -2.0, 0.0, rng);
  expectBlockedMatchesReference(300, 300, 9, false, true, 1.0, 0.0, rng);
}

TEST(GemmBlocked, AliasedInputsArePacked) {
  // A Gram product passes the same object as both operands; the packing
  // step must make this safe (C never aliases the inputs by contract).
  Xorshift rng(17);
  const Matrix a = xorshiftMatrix(120, 80, rng);
  Matrix cRef(80, 80), cBlk(80, 80);
  gemmReference(1.0, a, true, a, false, 0.0, cRef);
  gemmBlocked(1.0, a, true, a, false, 0.0, cBlk);
  EXPECT_LE(maxAbsDiff(cRef, cBlk), 1e-13 * 120.0);
}

TEST(GemmBlocked, DispatchedEntryPointAgreesWithBothKernels) {
  // gemm() must implement the identical contract whichever kernel it
  // picks — spot-check one shape on each side of the dispatch threshold.
  Xorshift rng(19);
  for (std::size_t n : {std::size_t{12}, std::size_t{96}}) {
    const Matrix a = xorshiftMatrix(n, n, rng);
    const Matrix b = xorshiftMatrix(n, n, rng);
    Matrix c1(n, n), c2(n, n);
    gemm(1.0, a, false, b, false, 0.0, c1);
    gemmReference(1.0, a, false, b, false, 0.0, c2);
    EXPECT_LE(maxAbsDiff(c1, c2), 1e-13 * static_cast<double>(n));
  }
}

TEST(GemmThreads, BitDeterministicUnderThreadPool) {
  // The threading contract (blas.hpp): identical bits for every thread
  // count, run-to-run. Use a size big enough to clear the threaded-fanout
  // floor so the pool is genuinely exercised.
  GemmThreadsGuard guard;
  Xorshift rng(23);
  const std::size_t n = 256;
  const Matrix a = xorshiftMatrix(n, n, rng);
  const Matrix b = xorshiftMatrix(n, n, rng);
  ASSERT_GE(n * n * n, kGemmThreadedFlopFloor);

  Matrix serial(n, n);
  setGemmThreads(1);
  gemmBlocked(1.0, a, false, b, false, 0.0, serial);
  for (std::size_t threads : {2u, 3u, 7u}) {
    setGemmThreads(threads);
    EXPECT_EQ(gemmThreads(), threads);
    Matrix run1(n, n), run2(n, n);
    gemmBlocked(1.0, a, false, b, false, 0.0, run1);
    gemmBlocked(1.0, a, false, b, false, 0.0, run2);
    EXPECT_TRUE(bitIdentical(run1, run2)) << threads << " threads, rerun";
    EXPECT_TRUE(bitIdentical(run1, serial)) << threads << " threads vs serial";
  }
}

// ------------------------------------------- per-element FMA contract

// Whether the blocked kernel accumulates with fused multiply-adds on this
// CPU. C(0, 0) sums (1 + 2^-30)(1 - 2^-30) = 1 - 2^-60 and its negative.
// The first step rounds the product to 1 either way (acc starts at zero);
// a fused second step then leaves 2^-60, an unfused one rounds the
// second product to -1 and leaves 0.
bool blockedKernelIsFused() {
  const double u = std::ldexp(1.0, -30);
  Matrix a(kGemmMr, 2), b(2, kGemmNr), c(kGemmMr, kGemmNr);
  a(0, 0) = 1.0 + u;
  a(0, 1) = -(1.0 + u);
  b(0, 0) = 1.0 - u;
  b(1, 0) = 1.0 - u;
  gemmBlocked(1.0, a, false, b, false, 0.0, c);
  return c(0, 0) != 0.0;
}

// Replays the blocked kernel's per-element sequence: C *= beta (unless
// beta == 1), then per KC block in ascending order acc = 0, acc +=
// (alpha * a_ik) * b_kj for ascending k (fused or rounded per step), and
// c += acc.
Matrix fmaOracle(double alpha, const Matrix& a, bool ta, const Matrix& b,
                 bool tb, double beta, Matrix c, bool fused) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = ta ? a.rows() : a.cols();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double cij = c(i, j);
      if (beta != 1.0) cij *= beta;
      if (alpha != 0.0) {
        for (std::size_t p0 = 0; p0 < k; p0 += kGemmKc) {
          double acc = 0.0;
          for (std::size_t p = p0; p < std::min(k, p0 + kGemmKc); ++p) {
            const double ap = alpha * (ta ? a(p, i) : a(i, p));
            const double bp = tb ? b(j, p) : b(p, j);
            if (fused) {
              acc = std::fma(ap, bp, acc);
            } else {
              const double prod = ap * bp;
              acc += prod;
            }
          }
          cij += acc;
        }
      }
      c(i, j) = cij;
    }
  return c;
}

bool takesBlockedPath(std::size_t m, std::size_t n, std::size_t k) {
  // gemm()'s literal dispatch thresholds (blas.hpp).
  return m >= 4 && n >= 8 && k >= 4 && m * n * k >= kGemmBlockedFlopFloor;
}

struct OracleCase {
  std::size_t m, n, k;
  bool ta, tb;
  double alpha, beta;
};

// One case's operands and the oracle's answer.
struct OracleRun {
  OracleCase cs;
  Matrix a, b, c0, want;
};

OracleRun makeOracleRun(const OracleCase& cs, bool fused, Xorshift& rng) {
  OracleRun r{cs, cs.ta ? xorshiftMatrix(cs.k, cs.m, rng)
                        : xorshiftMatrix(cs.m, cs.k, rng),
              cs.tb ? xorshiftMatrix(cs.n, cs.k, rng)
                    : xorshiftMatrix(cs.k, cs.n, rng),
              xorshiftMatrix(cs.m, cs.n, rng), Matrix()};
  r.want = fmaOracle(cs.alpha, r.a, cs.ta, r.b, cs.tb, cs.beta, r.c0, fused);
  return r;
}

// Asserts gemmBlocked(), and gemm() where it dispatches to the blocked
// kernel, equal the oracle bit for bit.
void expectOracleBits(const OracleRun& r) {
  const OracleCase& cs = r.cs;
  Matrix blk = r.c0;
  gemmBlocked(cs.alpha, r.a, cs.ta, r.b, cs.tb, cs.beta, blk);
  EXPECT_TRUE(bitIdentical(blk, r.want))
      << "gemmBlocked m=" << cs.m << " n=" << cs.n << " k=" << cs.k
      << " ta=" << cs.ta << " tb=" << cs.tb << " alpha=" << cs.alpha
      << " beta=" << cs.beta << " threads=" << gemmThreads();
  if (takesBlockedPath(cs.m, cs.n, cs.k)) {
    Matrix viaGemm = r.c0;
    gemm(cs.alpha, r.a, cs.ta, r.b, cs.tb, cs.beta, viaGemm);
    EXPECT_TRUE(bitIdentical(viaGemm, r.want))
        << "gemm m=" << cs.m << " n=" << cs.n << " k=" << cs.k
        << " threads=" << gemmThreads();
  }
}

TEST(GemmContract, TileEdgesMatchFmaOracleBitForBit) {
  // Per tile, m and n straddle every tile edge (tile - 1, tile, tile + 1,
  // 2 * tile + 3); the wide tile's sizes sit above its selection floor
  // (a multiple of its tile) so the CPU that has it runs it. The 24 cases
  // per tile cover every (transA, transB, alpha, beta) combination and
  // all 16 (m, n) pairs; k crosses one and two KC block edges.
  const bool fused = blockedKernelIsFused();
  Xorshift rng(0xf3a);
  const double alphas[] = {1.0, -0.75};
  const double betas[] = {0.0, 1.0, -0.5};
  const std::size_t ks[] = {kGemmKc - 1, kGemmKc + 1, 2 * kGemmKc + 5};
  struct Tile {
    std::size_t mr, nr, m0, n0;
  };
  static_assert(kGemmWideMinRows % kGemmWideMr == 0 &&
                kGemmWideMinCols % kGemmWideNr == 0);
  for (const Tile& t : {Tile{kGemmMr, kGemmNr, 0, 0},
                        Tile{kGemmWideMr, kGemmWideNr, kGemmWideMinRows,
                             kGemmWideMinCols}}) {
    const std::size_t ms[] = {t.m0 + t.mr - 1, t.m0 + t.mr, t.m0 + t.mr + 1,
                              t.m0 + 2 * t.mr + 3};
    const std::size_t ns[] = {t.n0 + t.nr - 1, t.n0 + t.nr, t.n0 + t.nr + 1,
                              t.n0 + 2 * t.nr + 3};
    for (std::size_t c = 0; c < 24; ++c) {
      const OracleCase cs{ms[c % 4],         ns[(c / 4) % 4], ks[c % 3],
                          (c & 1) != 0,      (c & 2) != 0,
                          alphas[(c / 4) % 2], betas[c / 8]};
      expectOracleBits(makeOracleRun(cs, fused, rng));
    }
  }
}

TEST(GemmContract, RowAndColumnFanOutMatchFmaOracleAtEveryWidth) {
  // Tall products (m >= 8n) fan out over rows, wide ones over columns;
  // one of each per tile, all above the threaded floor.
  GemmThreadsGuard guard;
  const bool fused = blockedKernelIsFused();
  const OracleCase cases[] = {
      {800, 100, kGemmKc + 1, false, false, 1.0, 0.0},   // tall, wide tile
      {800, 50, kGemmKc + 1, true, false, -0.75, 1.0},   // tall, 4x8 tile
      {100, 800, kGemmKc + 1, false, true, 1.0, -0.5},   // wide, wide tile
      {60, 800, kGemmKc + 1, true, true, -0.75, 0.0}};   // wide, 4x8 tile
  Xorshift rng(0xfa2);
  for (const OracleCase& cs : cases) {
    ASSERT_GE(cs.m * cs.n * cs.k, kGemmThreadedFlopFloor);
    const OracleRun run = makeOracleRun(cs, fused, rng);
    for (std::size_t width : {1u, 2u, 3u, 4u}) {
      setGemmThreads(width);
      expectOracleBits(run);
    }
  }
}

TEST(GemmContract, PanelGemvsBitIdenticalAcrossWidths) {
  // The Hessenberg panel's A0 v and the skew tridiagonalization's at u
  // run on the kernel pool above kDotRowsThreadedFloor; every row keeps
  // its own dotQuad, so widths 1 and 4 agree bit for bit.
  GemmThreadsGuard guard;
  Xorshift rng(0x9e55);
  const std::size_t n = 300;
  ASSERT_GE(n * n, kDotRowsThreadedFloor);
  const Matrix a = xorshiftMatrix(n, n, rng);
  Matrix skew = xorshiftMatrix(n, n, rng);
  skewSymmetrize(skew);
  CompressionOptions opts;
  opts.wantRange = true;
  opts.wantCorange = true;
  opts.wantNullspace = true;

  setGemmThreads(1);
  const HessenbergResult h1 = hessenberg(a);
  const Compression c1 = compress(skew, opts);
  setGemmThreads(4);
  const HessenbergResult h4 = hessenberg(a);
  const Compression c4 = compress(skew, opts);
  ASSERT_EQ(c1.kernelUsed, CompressionKernel::SkewTridiagonal);
  EXPECT_TRUE(bitIdentical(h1.h, h4.h));
  EXPECT_TRUE(bitIdentical(h1.q, h4.q));
  EXPECT_EQ(c1.sigma, c4.sigma);
  EXPECT_EQ(c1.rank, c4.rank);
  EXPECT_TRUE(bitIdentical(c1.range, c4.range));
  EXPECT_TRUE(bitIdentical(c1.corange, c4.corange));
  EXPECT_TRUE(bitIdentical(c1.nullspace, c4.nullspace));
}

// --------------------------------------------------------------- views

// A view of the r x c block at (pad, pad + 1) of a larger matrix whose
// other entries are a sentinel; ld = c + 2 * pad + 3 > c.
struct Embedded {
  static constexpr std::size_t kPad = 3;
  static constexpr double kSentinel = -7.25e300;
  Matrix store;
  std::size_t r, c;

  explicit Embedded(const Matrix& inner)
      : store(inner.rows() + 2 * kPad, inner.cols() + 2 * kPad + 3,
              kSentinel),
        r(inner.rows()),
        c(inner.cols()) {
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j)
        store(kPad + i, kPad + 1 + j) = inner(i, j);
  }
  MatrixView view() { return MatrixView(store).block(kPad, kPad + 1, r, c); }
  Matrix block() const { return store.block(kPad, kPad + 1, r, c); }
  // Every entry outside the block still holds the sentinel's bits.
  bool bordersIntact() const {
    const std::uint64_t want = std::bit_cast<std::uint64_t>(kSentinel);
    for (std::size_t i = 0; i < store.rows(); ++i)
      for (std::size_t j = 0; j < store.cols(); ++j) {
        const bool inside = i >= kPad && i < kPad + r && j >= kPad + 1 &&
                            j < kPad + 1 + c;
        if (!inside && std::bit_cast<std::uint64_t>(store(i, j)) != want)
          return false;
      }
    return true;
  }
};

TEST(GemmViews, OffsetViewsMatchCopiedBlocksBitForBit) {
  // Shapes on each dispatch path and tile: the reference kernel, the 4x8
  // tile, the wide tile, and a product above the threaded floor.
  GemmThreadsGuard guard;
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {{5, 9, 7}, {60, 80, 70}, {100, 120, 40},
                          {200, 200, 200}};
  ASSERT_FALSE(takesBlockedPath(5, 9, 7));
  ASSERT_TRUE(takesBlockedPath(60, 80, 70));
  ASSERT_LT(std::size_t{80}, kGemmWideMinCols);
  ASSERT_TRUE(takesBlockedPath(100, 120, 40));
  ASSERT_GE(std::size_t{100}, kGemmWideMinRows);
  ASSERT_GE(std::size_t{120}, kGemmWideMinCols);
  ASSERT_GE(std::size_t{200} * 200 * 200, kGemmThreadedFlopFloor);
  Xorshift rng(0x71e3);
  for (const Shape& sh : shapes)
    for (int c = 0; c < 24; ++c) {
      const bool ta = (c & 1) != 0, tb = (c & 2) != 0;
      const double alpha = (c & 4) != 0 ? -0.75 : 1.0;
      const double beta = c / 8 == 0 ? 0.0 : (c / 8 == 1 ? 1.0 : -0.5);
      const Matrix a = ta ? xorshiftMatrix(sh.k, sh.m, rng)
                          : xorshiftMatrix(sh.m, sh.k, rng);
      const Matrix b = tb ? xorshiftMatrix(sh.n, sh.k, rng)
                          : xorshiftMatrix(sh.k, sh.n, rng);
      const Matrix c0 = xorshiftMatrix(sh.m, sh.n, rng);
      Embedded ea(a), eb(b);
      for (std::size_t width : {1u, 2u, 3u, 4u}) {
        setGemmThreads(width);
        Matrix want = c0;
        gemm(alpha, a, ta, b, tb, beta, want);
        Embedded ec(c0);
        gemm(alpha, ea.view(), ta, eb.view(), tb, beta, ec.view());
        EXPECT_TRUE(bitIdentical(ec.block(), want))
            << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k << " ta=" << ta
            << " tb=" << tb << " alpha=" << alpha << " beta=" << beta
            << " width=" << width;
        EXPECT_TRUE(ec.bordersIntact()) << "C border written, case " << c;
      }
      EXPECT_TRUE(ea.bordersIntact() && eb.bordersIntact());
    }
}

TEST(GemmViews, BlockOfABlockAddressesTheParent) {
  Matrix m(6, 7);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 7; ++j) m(i, j) = 10.0 * i + j;
  const ConstMatrixView v = ConstMatrixView(m).block(1, 2, 4, 4).block(2, 1,
                                                                       2, 3);
  EXPECT_EQ(v.rows, 2u);
  EXPECT_EQ(v.cols, 3u);
  EXPECT_EQ(v.ld, 7u);
  EXPECT_EQ(v(0, 0), 33.0);
  EXPECT_EQ(v(1, 2), 45.0);
  EXPECT_THROW((void)ConstMatrixView(m).block(5, 0, 2, 1),
               std::invalid_argument);
  EXPECT_THROW((void)MatrixView(m).block(0, 6, 1, 2), std::invalid_argument);
  Matrix empty;
  EXPECT_EQ(MatrixView(empty).block(0, 0, 0, 0).rows, 0u);
}

// --------------------------------------------------------- compact-WY

// Per-reflector application oracle: C := H_{k-1} ... H_0 C (transpose) or
// C := H_0 ... H_{k-1} C, with H_j = I - tau_j v_j v_j^T.
Matrix applyReflectorsOneByOne(const Matrix& v,
                               const std::vector<double>& tau,
                               bool transpose, Matrix c) {
  const std::size_t k = v.cols(), m = v.rows();
  for (std::size_t idx = 0; idx < k; ++idx) {
    const std::size_t j = transpose ? idx : k - 1 - idx;
    if (tau[j] == 0.0) continue;
    for (std::size_t col = 0; col < c.cols(); ++col) {
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) s += v(i, j) * c(i, col);
      s *= tau[j];
      for (std::size_t i = 0; i < m; ++i) c(i, col) -= s * v(i, j);
    }
  }
  return c;
}

// Builds a random forward-columnwise reflector block (column j supported
// on rows j.., unit leading entry), optionally forcing one tau to zero.
void randomReflectorBlock(std::size_t m, std::size_t k, Xorshift& rng,
                          bool zeroTauColumn, Matrix& v,
                          std::vector<double>& tau) {
  v = Matrix(m, k);
  tau.assign(k, 0.0);
  std::vector<double> x(m), refl(m);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t len = m - j;
    for (std::size_t i = 0; i < len; ++i)
      x[i] = (zeroTauColumn && j == k / 2) ? (i == 0 ? 0.7 : 0.0)
                                           : rng.uniform(-1.0, 1.0);
    double beta;
    tau[j] = makeReflector(x.data(), len, refl.data(), beta);
    for (std::size_t i = 0; i < len; ++i) v(j + i, j) = refl[i];
  }
}

TEST(CompactWy, BlockLeftApplicationMatchesPerReflector) {
  Xorshift rng(29);
  for (bool zeroTau : {false, true}) {
    Matrix v;
    std::vector<double> tau;
    randomReflectorBlock(130, 17, rng, zeroTau, v, tau);
    const Matrix t = buildCompactWyT(v, tau);
    const Matrix c0 = xorshiftMatrix(130, 11, rng);
    for (bool transpose : {false, true}) {
      Matrix blocked = c0;
      applyBlockReflectorLeft(v, t, transpose, blocked);
      const Matrix oracle = applyReflectorsOneByOne(v, tau, transpose, c0);
      EXPECT_LE(maxAbsDiff(blocked, oracle), 1e-13 * 130.0)
          << "transpose=" << transpose << " zeroTau=" << zeroTau;
    }
  }
}

TEST(CompactWy, BlockRightApplicationMatchesPerReflector) {
  Xorshift rng(31);
  Matrix v;
  std::vector<double> tau;
  randomReflectorBlock(110, 13, rng, false, v, tau);
  const Matrix t = buildCompactWyT(v, tau);
  const Matrix c0 = xorshiftMatrix(9, 110, rng);
  Matrix blocked = c0;
  oracle::applyBlockReflectorRight(v, t, blocked);
  // C Q = (Q^T C^T)^T with Q^T the transposed-left application.
  const Matrix oracle =
      applyReflectorsOneByOne(v, tau, true, c0.transposed()).transposed();
  EXPECT_LE(maxAbsDiff(blocked, oracle), 1e-13 * 110.0);
}

TEST(CompactWy, ReflectorAnnihilatesAndIsOrthogonal) {
  Xorshift rng(37);
  std::vector<double> x(40), v(40);
  for (double& e : x) e = rng.uniform(-2.0, 2.0);
  double beta;
  const double tau = makeReflector(x.data(), x.size(), v.data(), beta);
  // H x = beta e1 exactly in exact arithmetic; check to roundoff.
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += v[i] * x[i];
  std::vector<double> hx(x);
  for (std::size_t i = 0; i < x.size(); ++i) hx[i] -= tau * s * v[i];
  EXPECT_NEAR(hx[0], beta, 1e-13);
  for (std::size_t i = 1; i < hx.size(); ++i) EXPECT_NEAR(hx[i], 0.0, 1e-13);
  // Norm preservation (orthogonality of H).
  double nx = 0.0, nhx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    nx += x[i] * x[i];
    nhx += hx[i] * hx[i];
  }
  EXPECT_NEAR(std::sqrt(nx), std::sqrt(nhx), 1e-12);
}

// ----------------------------------------------- blocked Hessenberg / QR

TEST(HessenbergBlocked, MatchesUnblockedReferenceAboveCrossover) {
  Xorshift rng(41);
  const std::size_t n = kHessenbergCrossover + 22;
  const Matrix a = xorshiftMatrix(n, n, rng);
  const HessenbergResult blocked = hessenberg(a);
  const HessenbergResult reference = hessenbergUnblocked(a);
  // Same reflector sign convention — the two H factors agree entrywise to
  // accumulated roundoff, far below any structural difference.
  EXPECT_LE(maxAbsDiff(blocked.h, reference.h), 1e-11 * a.normFrobenius());
  // Structure: exact zeros below the first subdiagonal.
  for (std::size_t i = 2; i < n; ++i)
    for (std::size_t j = 0; j + 1 < i; ++j) EXPECT_EQ(blocked.h(i, j), 0.0);
  // Reconstruction and orthogonality.
  const Matrix rec =
      multiply(blocked.q * blocked.h, false, blocked.q, true);
  EXPECT_LE(maxAbsDiff(rec, a), 1e-12 * static_cast<double>(n));
  Matrix qtq = atb(blocked.q, blocked.q);
  for (std::size_t i = 0; i < n; ++i) qtq(i, i) -= 1.0;
  EXPECT_LE(qtq.maxAbs(), 1e-13 * static_cast<double>(n));
}

TEST(HessenbergBlocked, DispatchBelowCrossoverIsBitIdenticalToReference) {
  Xorshift rng(43);
  const std::size_t n = kHessenbergCrossover / 2;
  const Matrix a = xorshiftMatrix(n, n, rng);
  const HessenbergResult viaDispatch = hessenberg(a);
  const HessenbergResult reference = hessenbergUnblocked(a);
  EXPECT_TRUE(bitIdentical(viaDispatch.h, reference.h));
  EXPECT_TRUE(bitIdentical(viaDispatch.q, reference.q));
}

TEST(HessenbergBlocked, InPlaceMatchesBlockCopyingOracleBitForBit) {
  // Orders at and past the crossover, on and off the panel width, with
  // and without a partial last panel; widths 1, 2 and 4 put the trailing
  // gemms and the panel dotRows on the kernel pool.
  GemmThreadsGuard guard;
  Xorshift rng(0x4e55);
  for (std::size_t n : {128u, 129u, 160u, 300u, 517u}) {
    const Matrix a = xorshiftMatrix(n, n, rng);
    setGemmThreads(1);
    const HessenbergResult want = oracle::hessenbergBlockCopying(a);
    for (std::size_t width : {1u, 2u, 4u}) {
      setGemmThreads(width);
      const HessenbergResult got = hessenberg(a);
      EXPECT_TRUE(bitIdentical(got.h, want.h)) << "n=" << n << " w=" << width;
      EXPECT_TRUE(bitIdentical(got.q, want.q)) << "n=" << n << " w=" << width;
      const HessenbergResult noQ = hessenberg(a, /*wantQ=*/false);
      EXPECT_TRUE(bitIdentical(noQ.h, want.h)) << "n=" << n << " w=" << width;
      EXPECT_TRUE(noQ.q.empty());
    }
  }
}

TEST(QrBlocked, BlockedFactorizationReconstructs) {
  Xorshift rng(47);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {kQrWyMinRows, 20}, {200, 200}, {260, 37}, {150, 230}};
  for (auto [m, n] : shapes) {
    const Matrix a = xorshiftMatrix(m, n, rng);
    const QR qr(a);
    const Matrix rec = qr.thinQ() * qr.r();
    EXPECT_LE(maxAbsDiff(rec, a), 1e-12 * static_cast<double>(m))
        << m << "x" << n;
    Matrix q = qr.fullQ();
    Matrix qtq = atb(q, q);
    for (std::size_t i = 0; i < m; ++i) qtq(i, i) -= 1.0;
    EXPECT_LE(qtq.maxAbs(), 1e-13 * static_cast<double>(m)) << m << "x" << n;
    // applyQ / applyQt are mutual inverses.
    const Matrix b = xorshiftMatrix(m, 5, rng);
    EXPECT_LE(maxAbsDiff(qr.applyQ(qr.applyQt(b)), b),
              1e-13 * static_cast<double>(m))
        << m << "x" << n;
  }
}

TEST(QrBlocked, RankDeficientColumnsKeepExactTauZeroSemantics) {
  // A zero column inside a blocked panel must produce tau = 0 (H = I) and
  // still factor/reconstruct exactly like the unblocked convention.
  Xorshift rng(53);
  Matrix a = xorshiftMatrix(96, 12, rng);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 4) = 0.0;
  const QR qr(a);
  const Matrix rec = qr.thinQ() * qr.r();
  EXPECT_LE(maxAbsDiff(rec, a), 1e-12 * 96.0);
}

}  // namespace
}  // namespace shhpass::linalg
