// Seeded property harness for the one-pass staircase deflation chain
// (linalg/staircase.hpp + the core deflation stages), in the mold of
// test_svd_random.cpp for the SVD layer:
//
//   * compression-kernel unit tests (Diagonal, QrSvd, SkewTridiagonal,
//     Svd) against the full-SVD oracle on seeded planted-rank matrices,
//     including odd-order skew pencils and the degenerate shapes;
//   * basis orthogonality at 1e-12 and subspace certificates
//     (M Ker = 0, range projector reproduces M, pinv solves in-range
//     systems);
//   * rank-decision parity under roundoff wobble of the resolved cutoff;
//   * parity of the three staircase chain stages with the SVD-chain
//     oracle (svd_chain_oracle.hpp): deflation counts, impulse-freeness,
//     M1, transfer preservation on seeded RLC models, and the staircase
//     chain engaging in the pipeline at every model order;
//   * gemm-thread bit-determinism of the staircase path (1/2/3/7);
//   * the rankTol plumbing regression: passivityMargin and
//     reduceDescriptor must honor a caller rankTol exactly like the
//     analyzePassivity pipeline (they historically dropped it);
//   * the "twice is enough" re-orthogonalization regression on a nearly
//     contained projection input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "core/impulse_deflation.hpp"
#include "core/margin.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "core/reduction.hpp"
#include "ds/balance.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "svd_chain_oracle.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using linalg::Compression;
using linalg::CompressionKernel;
using linalg::CompressionOptions;
using linalg::Matrix;
using linalg::StaircaseReport;
using testing::expectMatrixNear;
using testing::expectOrthonormalColumns;
using testing::randomMatrix;
using testing::Xorshift;

bool bitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.data(), b.data(),
                      sizeof(double) * a.rows() * a.cols()) == 0);
}

CompressionOptions wantAll(double rankTol = -1.0) {
  return CompressionOptions::allBases(rankTol);
}

// Certificate check of one compression against the matrix it describes
// and the full-SVD oracle: spectrum, policy rank, orthonormal bases,
// subspace residuals.
void expectValidCompression(const Matrix& m, const Compression& c,
                            const char* label) {
  SCOPED_TRACE(label);
  const std::size_t mn = std::min(m.rows(), m.cols());
  ASSERT_EQ(c.sigma.size(), mn);
  for (std::size_t i = 0; i + 1 < mn; ++i)
    EXPECT_GE(c.sigma[i], c.sigma[i + 1]) << "sigma not descending at " << i;

  // Spectrum and rank parity with the oracle (shared policy, same tol).
  linalg::SVD oracle(m);
  const double smax = mn == 0 ? 0.0 : oracle.singularValues().front();
  const double stol = 1e-12 * std::max(1.0, smax) *
                      static_cast<double>(std::max(m.rows(), m.cols()));
  for (std::size_t i = 0; i < mn; ++i)
    EXPECT_NEAR(c.sigma[i], oracle.singularValues()[i], stol) << "sigma " << i;

  // Bases: orthonormal at 1e-12 and certifying the right subspaces.
  const double rtol =
      1e-12 * std::max(1.0, smax) *
      static_cast<double>(std::max<std::size_t>(1, m.rows() + m.cols()));
  ASSERT_EQ(c.range.cols(), c.rank);
  ASSERT_EQ(c.corange.cols(), c.rank);
  ASSERT_EQ(c.nullspace.cols(), c.cols - c.rank);
  ASSERT_EQ(c.leftNullspace.cols(), c.rows - c.rank);
  expectOrthonormalColumns(c.range, 1e-12);
  expectOrthonormalColumns(c.corange, 1e-12);
  expectOrthonormalColumns(c.nullspace, 1e-12);
  expectOrthonormalColumns(c.leftNullspace, 1e-12);
  if (c.nullspace.cols() > 0)
    EXPECT_LT((m * c.nullspace).maxAbs(), rtol) << "M * Ker(M) != 0";
  if (c.leftNullspace.cols() > 0)
    EXPECT_LT(linalg::atb(c.leftNullspace, m).maxAbs(), rtol)
        << "Ker(M^T)^T * M != 0";
  // Range projector reproduces M (columns of M lie in span(range)).
  Matrix proj = m - c.range * linalg::atb(c.range, m);
  EXPECT_LT(proj.maxAbs(), rtol) << "Im(M) not within span(range)";
  Matrix mt = m.transposed();
  Matrix projT = mt - c.corange * linalg::atb(c.corange, mt);
  EXPECT_LT(projT.maxAbs(), rtol) << "Im(M^T) not within span(corange)";

  // Pseudoinverse applications: for b = M x, M M^+ b = b; and the
  // transposed variant on M^T.
  if (c.rank > 0) {
    Matrix x = randomMatrix(m.cols(), 3, 12345);
    Matrix b = m * x;
    expectMatrixNear(m * c.applyPinv(b), b,
                     1e-10 * std::max(1.0, b.maxAbs()) *
                         (smax / std::max(c.sigma[c.rank - 1], 1e-300)));
    Matrix y = randomMatrix(m.rows(), 3, 54321);
    Matrix bt = linalg::atb(m, y);
    expectMatrixNear(linalg::atb(m, c.applyPinvTranspose(bt)), bt,
                     1e-10 * std::max(1.0, bt.maxAbs()) *
                         (smax / std::max(c.sigma[c.rank - 1], 1e-300)));
  }
}

// Exactly skew matrix of rank <= 2k: W J W^T with J = blockdiag([0 1; -1 0]).
Matrix randomSkewOfRank(std::size_t n, std::size_t k, unsigned seed) {
  Matrix w = randomMatrix(n, 2 * k, seed);
  Matrix j(2 * k, 2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    j(2 * i, 2 * i + 1) = 1.0;
    j(2 * i + 1, 2 * i) = -1.0;
  }
  Matrix m = w * j * w.transposed();
  linalg::skewSymmetrize(m);
  return m;
}

TEST(StaircaseCompression, DiagonalKernelMatchesSvdOracle) {
  for (unsigned seed : {1u, 2u, 3u}) {
    Xorshift rng(seed);
    const std::size_t n = 8 + rng.pick(24);
    Matrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = rng.uniform(-2.0, 2.0);
      d(i, i) = rng.pick(4) == 0 ? 0.0 : v;  // sprinkle exact zeros
    }
    StaircaseReport sr;
    linalg::RankReport rr;
    Compression c = linalg::compress(d, wantAll(), &rr, &sr);
    EXPECT_EQ(c.kernelUsed, CompressionKernel::Diagonal);
    EXPECT_EQ(sr.diagonalFastPaths, 1u);
    EXPECT_EQ(rr.decisions, 1u);
    expectValidCompression(d, c, "diagonal");
  }
}

TEST(StaircaseCompression, QrSvdKernelTallAndWide) {
  for (unsigned seed : {11u, 12u}) {
    Matrix tall = testing::randomRankDeficient(64, 16, 10, seed);
    StaircaseReport sr;
    Compression ct = linalg::compress(tall, wantAll(), nullptr, &sr);
    EXPECT_EQ(ct.kernelUsed, CompressionKernel::QrSvd);
    EXPECT_EQ(sr.qrCompressions, 1u);
    EXPECT_EQ(ct.rank, 10u);
    expectValidCompression(tall, ct, "tall");

    Matrix wide = testing::randomRankDeficient(16, 64, 7, seed + 100);
    Compression cw = linalg::compress(wide, wantAll(), nullptr, &sr);
    EXPECT_EQ(cw.kernelUsed, CompressionKernel::QrSvd);
    EXPECT_EQ(cw.rank, 7u);
    expectValidCompression(wide, cw, "wide");
  }
}

TEST(StaircaseCompression, QrSvdLeftNullspaceOnlyMatchesAllBases) {
  // With at most the left nullspace wanted, the tall kernel forms the
  // small SVD's vectors only below full column rank: the sigma and the
  // left nullspace are the all-bases compression's bits either way.
  for (std::size_t rank : {160u, 150u}) {
    SCOPED_TRACE(rank);
    const Matrix m = testing::randomRankDeficient(400, 160, rank, 21);
    CompressionOptions left;
    left.wantLeftNullspace = true;
    const Compression a = linalg::compress(m, left);
    const Compression b = linalg::compress(m, wantAll());
    EXPECT_EQ(a.kernelUsed, CompressionKernel::QrSvd);
    EXPECT_EQ(a.rank, rank);
    EXPECT_EQ(a.sigma, b.sigma);
    EXPECT_TRUE(bitIdentical(a.leftNullspace, b.leftNullspace));
    EXPECT_EQ(linalg::compress(m, CompressionOptions{}).sigma, b.sigma);
  }
}

TEST(StaircaseCompression, SkewTridiagonalKernelEvenAndOddOrders) {
  struct Case { std::size_t n, k; unsigned seed; };
  for (const Case& c : {Case{17, 6, 21u}, Case{32, 12, 22u},
                        Case{33, 33, 23u}, Case{48, 10, 24u}}) {
    Matrix m = randomSkewOfRank(c.n, c.k, c.seed);
    StaircaseReport sr;
    Compression cc = linalg::compress(m, wantAll(), nullptr, &sr);
    EXPECT_EQ(cc.kernelUsed, CompressionKernel::SkewTridiagonal)
        << "n=" << c.n;
    EXPECT_EQ(sr.skewTridiagonalizations, 1u);
    EXPECT_EQ(cc.rank % 2, 0u) << "skew rank must be even";
    EXPECT_LE(cc.rank, std::min(2 * c.k, c.n));
    expectValidCompression(m, cc, "skew");
  }
}

TEST(StaircaseCompression, SkewKernelRangeColumnsPairUp) {
  // Every exactly-skew square input of order >= 2 goes to the skew
  // kernel, and its range columns come in pairs (2i, 2i+1) with
  // R_2i^T M R_2i+1 = sigma_2i: gathered as [R_even, R_odd], R^T M R is
  // [0 S; -S 0] with S = diag(sigma_0, sigma_2, ...).
  for (std::size_t n = 2; n <= 48; ++n)
    for (std::size_t k : {(n + 1) / 2, n / 4}) {
      if (k == 0) continue;
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      const Matrix m = randomSkewOfRank(n, k, static_cast<unsigned>(100 + n));
      Compression c = linalg::compress(m, wantAll());
      ASSERT_EQ(c.kernelUsed, CompressionKernel::SkewTridiagonal);
      ASSERT_EQ(c.rank % 2, 0u);
      EXPECT_EQ(c.rank, std::min(2 * k, n - n % 2));
      expectValidCompression(m, c, "skew pairing");
      const std::size_t h = c.rank / 2;
      Matrix r(n, c.rank);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < h; ++j) {
          r(i, j) = c.range(i, 2 * j);
          r(i, h + j) = c.range(i, 2 * j + 1);
        }
      Matrix expected(c.rank, c.rank);
      for (std::size_t j = 0; j < h; ++j) {
        EXPECT_EQ(c.sigma[2 * j], c.sigma[2 * j + 1]);
        expected(j, h + j) = c.sigma[2 * j];
        expected(h + j, j) = -c.sigma[2 * j];
      }
      const Matrix e11 = linalg::multiply(linalg::atb(r, m), false, r, false);
      expectMatrixNear(e11, expected, 1e-14 * m.normFrobenius() *
                                          static_cast<double>(n));
    }
}

TEST(StaircaseCompression, SvdFallbackOnUnstructuredSquare) {
  Matrix m = randomMatrix(20, 20, 31);
  StaircaseReport sr;
  Compression c = linalg::compress(m, wantAll(), nullptr, &sr);
  EXPECT_EQ(c.kernelUsed, CompressionKernel::Svd);
  EXPECT_EQ(sr.svdFallbacks, 1u);
  EXPECT_EQ(sr.compressions, 1u);
  expectValidCompression(m, c, "svd-fallback");

  // Rank only (no basis requested) above the blocked-SVD crossover: the
  // fallback computes singular values without U/V, and they must be the
  // full SVD's bits, so the rank decision cannot move.
  const std::size_t n = linalg::kSvdCrossover + 12;
  const Matrix big = testing::randomRankDeficient(n, n, n - 20, 33);
  StaircaseReport srBig;
  Compression v = linalg::compress(big, CompressionOptions{}, nullptr, &srBig);
  const linalg::SVD full(big);
  EXPECT_EQ(v.kernelUsed, CompressionKernel::Svd);
  EXPECT_EQ(srBig.svdFallbacks, 1u);
  ASSERT_EQ(v.sigma.size(), full.singularValues().size());
  EXPECT_EQ(std::memcmp(v.sigma.data(), full.singularValues().data(),
                        v.sigma.size() * sizeof(double)),
            0);
  EXPECT_EQ(v.rank, full.rank());
  EXPECT_EQ(v.rank, n - 20);
  EXPECT_TRUE(v.range.empty());
  EXPECT_TRUE(v.corange.empty());
  EXPECT_TRUE(v.nullspace.empty());
  EXPECT_TRUE(v.leftNullspace.empty());
}

TEST(StaircaseCompression, DegenerateShapes) {
  StaircaseReport sr;
  Compression e0 = linalg::compress(Matrix(0, 0), wantAll(), nullptr, &sr);
  EXPECT_EQ(e0.rank, 0u);
  Compression r1 = linalg::compress(randomMatrix(1, 9, 41), wantAll());
  expectValidCompression(randomMatrix(1, 9, 41), r1, "1x9");
  Compression z = linalg::compress(Matrix(6, 4), wantAll());
  EXPECT_EQ(z.rank, 0u);
  EXPECT_EQ(z.nullspace.cols(), 4u);
  EXPECT_EQ(z.leftNullspace.cols(), 6u);
  expectValidCompression(Matrix(6, 4), z, "zero");
}

TEST(StaircaseCompression, RankStableUnderTolWobble) {
  const double eps = std::numeric_limits<double>::epsilon();
  for (unsigned seed : {61u, 62u, 63u}) {
    Matrix m = testing::randomRankDeficient(40, 40, 23, seed);
    Compression base = linalg::compress(m, wantAll());
    for (double f : {1.0 - 4.0 * eps, 1.0 + 4.0 * eps}) {
      Compression wob = linalg::compress(m, wantAll(base.resolvedTol * f));
      EXPECT_EQ(wob.rank, base.rank) << "rank flipped at wobble " << f;
    }
  }
}

TEST(StaircaseCompression, BitDeterministicAcrossGemmThreads) {
  Matrix skew = randomSkewOfRank(300, 120, 71);
  Matrix tall = testing::randomRankDeficient(300, 90, 60, 72);
  linalg::setGemmThreads(1);
  Compression s1 = linalg::compress(skew, wantAll());
  Compression t1 = linalg::compress(tall, wantAll());
  for (std::size_t threads : {2u, 3u, 7u}) {
    linalg::setGemmThreads(threads);
    Compression s = linalg::compress(skew, wantAll());
    Compression t = linalg::compress(tall, wantAll());
    EXPECT_EQ(s.rank, s1.rank);
    EXPECT_TRUE(bitIdentical(s.range, s1.range)) << threads;
    EXPECT_TRUE(bitIdentical(s.corange, s1.corange)) << threads;
    EXPECT_TRUE(bitIdentical(s.nullspace, s1.nullspace)) << threads;
    EXPECT_TRUE(bitIdentical(t.range, t1.range)) << threads;
    EXPECT_TRUE(bitIdentical(t.leftNullspace, t1.leftNullspace)) << threads;
    EXPECT_EQ(s.sigma, s1.sigma);
    EXPECT_EQ(t.sigma, t1.sigma);
  }
  linalg::setGemmThreads(1);
}

// ---------------------------------------------------------------------------
// Staircase chain vs the SVD-chain oracle.

void expectChainParity(const ds::DescriptorSystem& g, const char* label) {
  SCOPED_TRACE(label);
  shh::ShhRealization phi = core::buildPhi(g);
  StaircaseReport stair;
  core::ImpulseDeflationResult sc =
      core::deflateImpulseModes(phi, -1.0, nullptr, &stair);
  oracle::ImpulseDeflation ora = oracle::deflateImpulseModes(phi);
  EXPECT_EQ(sc.removed, ora.removed) << "stage-1 deflation count";
  EXPECT_EQ(sc.reduced.order(), ora.reduced.order());
  EXPECT_TRUE(sc.reduced.checkStructure());
  EXPECT_GT(stair.compressions, 0u);

  // Transfer preservation of the staircase reduction (same property the
  // oracle path is tested for in test_core_stages.cpp).
  ds::DescriptorSystem before = phi.toDescriptor();
  ds::DescriptorSystem after = sc.reduced.toDescriptor();
  for (double w : {0.5, 3.0, 200.0}) {
    ds::TransferValue ga = ds::evalTransfer(before, 0.0, w);
    ds::TransferValue gb = ds::evalTransfer(after, 0.0, w);
    expectMatrixNear(ga.re, gb.re, 1e-7 * (1.0 + w));
    expectMatrixNear(ga.im, gb.im, 1e-7 * (1.0 + w));
  }

  core::NondynamicRemovalResult nsc = core::removeNondynamicModes(sc.reduced);
  oracle::NondynamicRemoval nora = oracle::removeNondynamicModes(ora.reduced);
  EXPECT_EQ(nsc.removed, nora.removed) << "stage-2 removal count";
  EXPECT_EQ(nsc.impulseFree, nora.impulseFree);
  if (nsc.impulseFree) {
    EXPECT_TRUE(nsc.shh.checkStructure());
    EXPECT_EQ(nsc.shh.order(), nora.shh.order());
  }

  core::M1Extraction msc = core::extractM1(g);
  oracle::M1Extraction mora = oracle::extractM1(g);
  EXPECT_EQ(msc.chainCount, mora.chainCount) << "grade-2 chain count";
  EXPECT_EQ(msc.symmetric, mora.symmetric);
  EXPECT_EQ(msc.psd, mora.psd);
  expectMatrixNear(msc.m1, mora.m1,
                   1e-8 * std::max(1.0, mora.m1.maxAbs()));
}

TEST(StaircaseChainParity, BenchmarkModels) {
  for (std::size_t order : {25u, 64u, 100u}) {
    for (bool impulsive : {false, true}) {
      ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, impulsive);
      expectChainParity(ds::balanceDescriptor(g).sys,
                        impulsive ? "bench impulsive" : "bench plain");
    }
  }
}

TEST(StaircaseChainParity, RandomRlcNetworks) {
  for (unsigned seed : {5u, 6u}) {
    for (bool sprinkle : {false, true}) {
      ds::DescriptorSystem g =
          circuits::makeRandomRlcNetwork(18 + 4 * seed, seed, sprinkle);
      expectChainParity(ds::balanceDescriptor(g).sys, "random rlc");
    }
  }
}

TEST(StaircaseChainParity, GradeThreeScreenAgreesWithVerdicts) {
  // The unified hasHigherOrderImpulses must keep the known verdicts, with and
  // without a reused E compression.
  ds::DescriptorSystem bad = circuits::makeNonPassiveHigherOrderImpulse();
  EXPECT_TRUE(core::hasHigherOrderImpulses(bad));
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = false;  // impulsive but only grade 2
  ds::DescriptorSystem good = circuits::makeRlcLadder(opt);
  linalg::RankReport rr;
  StaircaseReport sr;
  EXPECT_FALSE(core::hasHigherOrderImpulses(good, -1.0, &rr, &sr));
  EXPECT_GT(rr.decisions, 0u);
  Compression ce = linalg::compress(good.e, wantAll());
  StaircaseReport sr2;
  EXPECT_FALSE(core::hasHigherOrderImpulses(good, -1.0, nullptr, &sr2, &ce));
  EXPECT_GT(sr2.reusedCompressions, 0u);
}

TEST(StaircaseChainParity, PipelineUsesStaircaseAtEveryOrder) {
  // One deflation chain at every model order: each analysis must run the
  // staircase chain and keep the oracle's deflation and removal counts.
  for (std::size_t order : {25u, 64u, 150u}) {
    SCOPED_TRACE(order);
    ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, true);
    api::AnalysisReport res = testing::pipelineReport(g);
    EXPECT_TRUE(res.passive) << core::failureStageName(res.failure);
    EXPECT_GT(res.staircase.compressions, 0u);
    EXPECT_GT(res.staircase.reusedCompressions, 0u);
    EXPECT_GT(res.staircase.chainLength, 0u);

    ds::DescriptorSystem bal = ds::balanceDescriptor(g).sys;
    shh::ShhRealization phi = core::buildPhi(bal);
    oracle::ImpulseDeflation s1 = oracle::deflateImpulseModes(phi);
    EXPECT_EQ(res.removedImpulsive, s1.removed);
    oracle::NondynamicRemoval s2 = oracle::removeNondynamicModes(s1.reduced);
    EXPECT_EQ(res.removedNondynamic, s2.removed);
    EXPECT_TRUE(s2.impulseFree);

    if (order == 150u) {
      // m1-extraction reuses the impulse-deflation stage's compression of
      // the balanced E instead of recompressing it.
      core::ImpulseDeflationResult d = core::deflateImpulseModes(phi);
      ASSERT_TRUE(d.hasHalfECompression);
      StaircaseReport m1Stair;
      core::M1Extraction m1 = core::extractM1(
          bal, -1.0, {}, &d.halfECompression, nullptr, &m1Stair);
      EXPECT_GT(m1Stair.reusedCompressions, 0u);
      EXPECT_EQ(m1.chainCount, oracle::extractM1(bal).chainCount);
    }
  }
}

TEST(StaircaseChainParity, StaircasePathBitDeterministicAcrossThreads) {
  ds::DescriptorSystem g = circuits::makeBenchmarkModel(120, true);
  ds::DescriptorSystem bal = ds::balanceDescriptor(g).sys;
  shh::ShhRealization phi = core::buildPhi(bal);
  linalg::setGemmThreads(1);
  core::ImpulseDeflationResult base = core::deflateImpulseModes(phi);
  core::NondynamicRemovalResult nbase =
      core::removeNondynamicModes(base.reduced);
  for (std::size_t threads : {2u, 3u, 7u}) {
    linalg::setGemmThreads(threads);
    core::ImpulseDeflationResult r = core::deflateImpulseModes(phi);
    EXPECT_EQ(r.removed, base.removed);
    EXPECT_TRUE(bitIdentical(r.reduced.e, base.reduced.e)) << threads;
    EXPECT_TRUE(bitIdentical(r.reduced.a, base.reduced.a)) << threads;
    EXPECT_TRUE(bitIdentical(r.reduced.c, base.reduced.c)) << threads;
    core::NondynamicRemovalResult nr = core::removeNondynamicModes(r.reduced);
    EXPECT_EQ(nr.removed, nbase.removed);
    EXPECT_TRUE(bitIdentical(nr.shh.e, nbase.shh.e)) << threads;
    EXPECT_TRUE(bitIdentical(nr.shh.a, nbase.shh.a)) << threads;
  }
  linalg::setGemmThreads(1);
}

// ---------------------------------------------------------------------------
// Satellite regressions.

TEST(ReorthRegression, NearlyContainedProjectionStaysOrthogonal) {
  // m = basis * coef + tiny noise: a classical one-shot projection leaves
  // an O(eps * |m| / |residual|) relative contamination along the basis;
  // the second pass must push it to roundoff of the RESIDUAL scale.
  Matrix basis = linalg::QR(randomMatrix(80, 30, 81)).thinQ();
  Matrix m = basis * randomMatrix(30, 5, 82);
  Matrix noise = randomMatrix(80, 5, 83);
  m += 1e-13 * (noise - basis * linalg::atb(basis, noise));
  Matrix p = linalg::projectOutTwice(basis, m);
  // Contamination along the basis, relative to the surviving residual.
  const double contamination = linalg::atb(basis, p).maxAbs();
  ASSERT_GT(p.maxAbs(), 0.0);
  EXPECT_LT(contamination, 1e-3 * p.maxAbs());
  EXPECT_LT(contamination, 1e-15 * m.maxAbs());
}

TEST(RankTolPlumbing, MarginAndReductionHonorRankTol) {
  // A coarse absolute rankTol collapses every deflation decision, which
  // the pipeline reports as a structural failure. passivityMargin and
  // reduceDescriptor must see the SAME tolerance (they historically
  // dropped it on the floor and silently used the default).
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);

  core::PassivityOptions defaults;
  api::AnalysisReport base = testing::pipelineReport(g, defaults);
  ASSERT_TRUE(base.passive);

  core::PassivityOptions coarse;
  coarse.rankTol = 1e6;  // absolute: larger than every singular value
  api::AnalysisReport broken = testing::pipelineReport(g, coarse);
  ASSERT_FALSE(broken.passive);
  ASSERT_NE(broken.removedNondynamic, base.removedNondynamic)
      << "coarse rankTol must change the deflation count on the pipeline";

  // Margin path: defined at the default tolerance, undefined (same
  // structural defect as the pipeline) at the coarse one.
  core::PassivityMargin pmDefault = core::passivityMargin(g);
  EXPECT_TRUE(pmDefault.defined);
  core::PassivityMargin pmCoarse =
      core::passivityMargin(g, 1e-6, coarse.rankTol);
  EXPECT_FALSE(pmCoarse.defined);
  EXPECT_EQ(pmCoarse.structuralDefect, broken.failure);

  // Reduction path: succeeds at the default tolerance, fails at the
  // coarse one (the A22 certificate collapses identically).
  core::ReducedModel rdDefault = core::reduceDescriptor(g, g.order());
  EXPECT_TRUE(rdDefault.ok);
  core::ReducedModel rdCoarse =
      core::reduceDescriptor(g, g.order(), 0.0, coarse.rankTol);
  EXPECT_FALSE(rdCoarse.ok);
}

}  // namespace
}  // namespace shhpass
