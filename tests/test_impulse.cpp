// Tests for the impulsive-structure record (ds::impulsiveStructure) and
// its readers: the mode census, the pencil index, the regularity and
// finite-spectrum screens and the impulse controllability/observability
// characterizations (Sec. 2.5 of the paper), plus regressions pinning the
// shared rank policy (linalg/svd.hpp) at the deflation tolerance boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuits/generators.hpp"
#include "core/markov.hpp"
#include "ds/balance.hpp"
#include "ds/impulse_tests.hpp"
#include "linalg/svd.hpp"
#include "test_support.hpp"

namespace shhpass::ds {
namespace {

using linalg::Matrix;
using testing::pencilSystem;

// Index-1 system: E = diag(1, 0), A22 = -1 nonsingular.
DescriptorSystem index1() {
  DescriptorSystem s;
  s.e = Matrix::diag({1.0, 0.0});
  s.a = Matrix{{-1.0, 0.0}, {0.0, -1.0}};
  s.b = Matrix{{1.0}, {1.0}};
  s.c = Matrix{{1.0, 1.0}};
  s.d = Matrix{{0.0}};
  return s;
}

// Index-2 system (differentiator): impulsive modes present.
DescriptorSystem index2() {
  DescriptorSystem s;
  s.e = Matrix{{0.0, 1.0}, {0.0, 0.0}};
  s.a = Matrix::identity(2);
  s.b = Matrix{{0.0}, {1.0}};
  s.c = Matrix{{-1.0, 0.0}};
  s.d = Matrix{{0.0}};
  return s;
}

// The finite spectrum on a compression of E and a record of g's own.
FiniteSpectrum spectrum(const DescriptorSystem& g) {
  const linalg::Compression ce =
      linalg::compress(g.e, linalg::CompressionOptions::allBases(-1.0));
  return finiteSpectrum(g, impulsiveStructure(g, -1.0, &ce), ce);
}

TEST(ModeCensusTest, RegularEAllFinite) {
  DescriptorSystem s = index1();
  s.e = Matrix::identity(2);
  ModeCensus mc = censusModes(s);
  EXPECT_EQ(mc.finite, 2u);
  EXPECT_EQ(mc.nondynamic, 0u);
  EXPECT_EQ(mc.impulsive, 0u);
}

TEST(ModeCensusTest, Index1Split) {
  ModeCensus mc = censusModes(index1());
  EXPECT_EQ(mc.order, 2u);
  EXPECT_EQ(mc.rankE, 1u);
  EXPECT_EQ(mc.finite, 1u);
  EXPECT_EQ(mc.nondynamic, 1u);
  EXPECT_EQ(mc.impulsive, 0u);
}

TEST(ModeCensusTest, Index2Split) {
  ModeCensus mc = censusModes(index2());
  EXPECT_EQ(mc.rankE, 1u);
  EXPECT_EQ(mc.finite, 0u);
  EXPECT_EQ(mc.nondynamic, 1u);
  EXPECT_EQ(mc.impulsive, 1u);
}

TEST(ImpulseFree, Classification) {
  EXPECT_TRUE(isImpulseFree(index1()));
  EXPECT_FALSE(isImpulseFree(index2()));
  // Nonsingular E is trivially impulse-free.
  DescriptorSystem reg = index1();
  reg.e = Matrix::identity(2);
  EXPECT_TRUE(isImpulseFree(reg));
}

TEST(ImpulseObservability, DifferentiatorIsObservable) {
  // The differentiator's impulsive mode shows up in the output (G = s).
  EXPECT_TRUE(isImpulseObservable(index2()));
}

TEST(ImpulseObservability, HiddenImpulsiveModeDetected) {
  // Zero the output map on the impulsive chain: mode becomes unobservable.
  DescriptorSystem s = index2();
  s.c = Matrix{{0.0, 0.0}};
  EXPECT_FALSE(isImpulseObservable(s));
  // But it is still impulse controllable through b.
  EXPECT_TRUE(isImpulseControllable(s));
}

TEST(ImpulseControllability, DrivenChainIsControllable) {
  EXPECT_TRUE(isImpulseControllable(index2()));
  DescriptorSystem s = index2();
  s.b = Matrix{{0.0}, {0.0}};
  EXPECT_FALSE(isImpulseControllable(s));
  EXPECT_TRUE(isImpulseObservable(s));
}

TEST(PencilIndexTest, KnownIndices) {
  DescriptorSystem reg = index1();
  reg.e = Matrix::identity(2);
  EXPECT_EQ(pencilIndex(reg), 0u);
  EXPECT_EQ(pencilIndex(index1()), 1u);
  EXPECT_EQ(pencilIndex(index2()), 2u);
}

TEST(PencilIndexTest, Index3Chain) {
  // 3-long nilpotent chain: index 3.
  DescriptorSystem s;
  s.e = Matrix::zeros(3, 3);
  s.e(0, 1) = 1.0;
  s.e(1, 2) = 1.0;
  s.a = Matrix::identity(3);
  s.b = Matrix(3, 1, 1.0);
  s.c = Matrix(1, 3, 1.0);
  s.d = Matrix(1, 1);
  EXPECT_EQ(pencilIndex(s), 3u);
}

TEST(CircuitModels, PlainLadderIsImpulsiveAtPort) {
  // Port node has no shunt capacitor: Z(s) ~ s*l at infinity.
  circuits::LadderOptions opt;
  opt.sections = 3;
  DescriptorSystem sys = circuits::makeRlcLadder(opt);
  EXPECT_FALSE(isImpulseFree(sys));
  // Physical RLC: the impulsive mode is both controllable and observable
  // from the port.
  EXPECT_TRUE(isImpulseControllable(sys));
  EXPECT_TRUE(isImpulseObservable(sys));
}

TEST(CircuitModels, CapAtPortMakesImpulseFree) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  DescriptorSystem sys = circuits::makeRlcLadder(opt);
  EXPECT_TRUE(isImpulseFree(sys));
  ModeCensus mc = censusModes(sys);
  EXPECT_EQ(mc.impulsive, 0u);
  EXPECT_GT(mc.nondynamic, 0u);  // midnodes carry no capacitance
}

TEST(CircuitModels, ImpulsiveSectionsIncreaseImpulsiveCount) {
  circuits::LadderOptions opt;
  opt.sections = 9;
  opt.capAtPort = true;
  ModeCensus base = censusModes(circuits::makeRlcLadder(opt));
  opt.impulsiveEvery = 3;
  ModeCensus imp = censusModes(circuits::makeRlcLadder(opt));
  EXPECT_GT(imp.impulsive, base.impulsive);
}

TEST(CircuitModels, CensusAddsUp) {
  circuits::LadderOptions opt;
  opt.sections = 6;
  opt.impulsiveEvery = 2;
  ModeCensus mc = censusModes(circuits::makeRlcLadder(opt));
  EXPECT_EQ(mc.finite + mc.nondynamic + mc.impulsive, mc.order);
}

TEST(PencilIndexTest, ImpulsiveBenchmarkModelsAreIndexTwo) {
  // The Table-1 impulsive ladders carry grade-2 chains only: the index,
  // the grade-3 screen, the census and M1's chain count agree, raw and
  // balanced.
  for (std::size_t order : {40u, 60u, 100u}) {
    const DescriptorSystem raw = circuits::makeBenchmarkModel(order, true);
    for (const DescriptorSystem& g : {raw, balanceDescriptor(raw).sys}) {
      SCOPED_TRACE(order);
      EXPECT_EQ(pencilIndex(g), 2u);
      EXPECT_FALSE(core::hasHigherOrderImpulses(g));
      EXPECT_EQ(censusModes(g).impulsive, core::extractM1(g).chainCount);
    }
  }
}

TEST(ModeCensusTest, ImpulseFreeLadderHasNoImpulsiveModes) {
  // A port capacitor makes the ladder impulse-free at any element scale;
  // every dynamic state (10 inductors, 11 capacitors) is a finite mode.
  circuits::LadderOptions opt;
  opt.sections = 10;
  opt.capAtPort = true;
  opt.r = 1e3;
  opt.l = 1e-12;
  opt.c = 1e-6;
  const DescriptorSystem g = circuits::makeRlcLadder(opt);
  EXPECT_TRUE(isImpulseFree(g));
  EXPECT_EQ(pencilIndex(g), 1u);
  const ModeCensus mc = censusModes(g);
  EXPECT_EQ(mc.impulsive, 0u);
  EXPECT_EQ(mc.rankE, 21u);
  EXPECT_EQ(mc.finite, 21u);
}

TEST(ModeCensusTest, IndexAndGradeThreeScreenAgreeAndCensusAddsUp) {
  std::vector<DescriptorSystem> models;
  for (std::size_t sections : {1u, 3u, 6u})
    for (bool capAtPort : {false, true})
      for (std::size_t every : {0u, 2u}) {
        circuits::LadderOptions opt;
        opt.sections = sections;
        opt.capAtPort = capAtPort;
        opt.impulsiveEvery = every;
        models.push_back(circuits::makeRlcLadder(opt));
      }
  for (std::size_t order : {20u, 40u})
    for (bool impulsive : {false, true})
      models.push_back(circuits::makeBenchmarkModel(order, impulsive));
  for (unsigned seed : {1u, 2u, 3u})
    for (bool sprinkle : {false, true})
      models.push_back(circuits::makeRandomRlcNetwork(8, seed, sprinkle));
  for (std::size_t sections : {1u, 4u, 16u}) {
    models.push_back(circuits::makeNonPassiveNegativeResistor(sections));
    models.push_back(circuits::makeNonPassiveNegativeFeedthrough(sections));
  }
  models.push_back(circuits::makeNonPassiveIndefiniteM1());
  models.push_back(circuits::makeNonPassiveHigherOrderImpulse());
  std::size_t gradeThree = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE(i);
    for (const DescriptorSystem& g :
         {models[i], balanceDescriptor(models[i]).sys}) {
      const bool deep = pencilIndex(g) >= 3;
      EXPECT_EQ(deep, core::hasHigherOrderImpulses(g));
      gradeThree += deep ? 1 : 0;
      const ModeCensus mc = censusModes(g);
      EXPECT_EQ(mc.finite + mc.nondynamic + mc.impulsive, mc.order);
    }
  }
  EXPECT_EQ(gradeThree, 2u);  // the grade-3 mutant, raw and balanced
}

// ------------- shared rank policy at the deflation tolerance boundary

// E = diag(1, delta, 0): whether the delta state counts as dynamic is
// exactly one rankFromSingularValues decision. This pins the policy the
// whole deflation chain keys off: strict sigma > tol, both sides of the
// cutoff, the exact-boundary case, and stability under roundoff-level
// tolerance wobble.
DescriptorSystem nearSingularE(double delta) {
  DescriptorSystem s;
  s.e = linalg::Matrix::diag({1.0, delta, 0.0});
  s.a = -1.0 * linalg::Matrix::identity(3);
  s.b = linalg::Matrix(3, 1, 1.0);
  s.c = linalg::Matrix(1, 3, 1.0);
  s.d = linalg::Matrix(1, 1);
  return s;
}

TEST(RankPolicyBoundary, RankEFollowsExplicitDeflationTolerance) {
  const double tol = 1e-8;
  auto rankE = [](double delta, double t) {
    return impulsiveStructure(nearSingularE(delta), t).rankE;
  };
  EXPECT_EQ(rankE(1e-6, tol), 2u);
  EXPECT_EQ(rankE(1e-10, tol), 1u);
  // Exactly at the cutoff: the policy is strict (sigma > tol), so an
  // exactly-at-tolerance singular value is DROPPED.
  EXPECT_EQ(rankE(tol, tol), 1u);
  // Roundoff-level wobble of the cutoff must not flip either decision.
  for (double wobble : {1.0 - 1e-13, 1.0 + 1e-13}) {
    EXPECT_EQ(rankE(1e-6, tol * wobble), 2u);
    EXPECT_EQ(rankE(1e-10, tol * wobble), 1u);
  }
}

TEST(RankPolicyBoundary, RankReportRecordsDecisionSharpness) {
  // delta barely above the cutoff: kept, but the recorded margin exposes
  // how sharp the decision was (near 1 = near-flip).
  const double tol = 1e-8;
  linalg::RankReport sharpReport;
  ImpulsiveStructure sharp =
      impulsiveStructure(nearSingularE(1.5e-8), tol, nullptr, &sharpReport);
  EXPECT_EQ(sharp.rankE, 2u);
  // Three decisions: rank(E) on sigma(E) = {1, 1.5e-8, 0}, and the right
  // and left grade-2 head tests on (I - R R^T) A K = -e3 and its dual
  // (sigma 1, kept 1e8 above the cutoff, so the sharp sigma(E) decision
  // sets the minimum).
  EXPECT_EQ(sharpReport.decisions, 3u);
  EXPECT_GT(sharpReport.minKeptMargin, 1.0);
  EXPECT_LT(sharpReport.minKeptMargin, 2.0);  // 1.5e-8 / 1e-8
  // The trailing exact zero is dropped with a huge distance to the
  // cutoff: the dropped margin stays near 0.
  EXPECT_LT(sharpReport.maxDroppedMargin, 1e-3);
  // A comfortable case: both margins far from 1.
  linalg::RankReport wideReport;
  impulsiveStructure(nearSingularE(1e-3), tol, nullptr, &wideReport);
  EXPECT_EQ(wideReport.decisions, 3u);
  EXPECT_GT(wideReport.minKeptMargin, 1e3);
}

TEST(RankPolicyBoundary, ImpulseTestsStableAcrossPolicyWobble) {
  // The Sec.-2.5 impulse characterizations are rank-decision chains; on
  // a well-separated physical model they must be invariant under
  // roundoff-level tolerance perturbation of the default policy.
  circuits::LadderOptions opt;
  opt.sections = 4;
  ds::DescriptorSystem sys = circuits::makeRlcLadder(opt);
  const double tol =
      linalg::SVD(sys.e).defaultTol();  // resolved default cutoff
  for (double wobble : {1.0 - 1e-13, 1.0, 1.0 + 1e-13}) {
    EXPECT_FALSE(isImpulseFree(sys, tol * wobble));
    EXPECT_TRUE(isImpulseControllable(sys, tol * wobble));
    EXPECT_TRUE(isImpulseObservable(sys, tol * wobble));
    EXPECT_EQ(pencilIndex(sys, tol * wobble), 2u);
  }
}

TEST(FiniteSpectrumTest, CountMatchesTheCensusOnTheScaledGrid) {
  // The screen takes the eigenvalues of the order-q finite part, so its
  // count is the structure's, whatever the pole speeds.
  for (const testing::GridLadder& g : testing::scaledLadderGrid()) {
    SCOPED_TRACE(g.id);
    const DescriptorSystem bal = balanceDescriptor(g.system).sys;
    const FiniteSpectrum fs = spectrum(bal);
    EXPECT_TRUE(fs.regular);
    EXPECT_TRUE(fs.stable());
    EXPECT_EQ(fs.eigenvalues.size(), censusModes(bal).finite);
  }
  // 3 sections, 1 pH, 1 kOhm, no port capacitor: three shunt capacitors
  // and two inductors off the port's inductor cutset (a relative cut on
  // shift-inverted eigenvalues counts 3 for C >= 1 pF).
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.r = 1e3;
  opt.l = 1e-12;
  for (double c : {1e-15, 1e-12, 1e-9, 1e-6}) {
    opt.c = c;
    const DescriptorSystem g = circuits::makeRlcLadder(opt);
    EXPECT_EQ(spectrum(balanceDescriptor(g).sys).eigenvalues.size(), 5u)
        << c;
  }
}

TEST(FiniteSpectrumTest, FastUnstablePoleIsFinite) {
  // A grade-2 chain (E = [0 1; 0 0], A = I) next to the poles -1 and p:
  // W* has a Wong level beyond Ker E, and p is a large finite eigenvalue
  // of the finite part, not an infinite one.
  for (int k = 3; k <= 12; ++k) {
    const double p = std::pow(10.0, k);
    Matrix e = Matrix::identity(4);
    e(0, 0) = 0.0;
    e(1, 1) = 0.0;
    e(0, 1) = 1.0;
    const Matrix a = Matrix::diag({1.0, 1.0, -1.0, p});
    const FiniteSpectrum fs = spectrum(pencilSystem(e, a));
    ASSERT_TRUE(fs.regular) << p;
    ASSERT_EQ(fs.eigenvalues.size(), 2u) << p;
    std::vector<double> re;
    for (std::complex<double> l : fs.eigenvalues) re.push_back(l.real());
    std::sort(re.begin(), re.end());
    EXPECT_NEAR(re[0], -1.0, 1e-6) << p;
    EXPECT_NEAR(re[1], p, 1e-6 * p) << p;
    EXPECT_FALSE(fs.stable()) << p;
  }
}

TEST(FiniteSpectrumTest, PolynomialKernelIsNotRegular) {
  // det(sE - A) vanishes identically when a kernel polynomial x(s) with
  // (sE - A) x(s) = 0 exists: a zero column (E = A = 0), the block
  // L_1 + L_0^T (E = [1 0; 0 0], A = [0 1; 0 0], x = [1; s]), and
  // L_2 + L_1^T (x = [1; s; s^2; 0]).
  Matrix e2 = Matrix::zeros(2, 2), a2 = Matrix::zeros(2, 2);
  e2(0, 0) = 1.0;
  a2(0, 1) = 1.0;
  Matrix e4 = Matrix::zeros(4, 4), a4 = Matrix::zeros(4, 4);
  e4(0, 0) = e4(1, 1) = e4(2, 3) = 1.0;
  a4(0, 1) = a4(1, 2) = a4(3, 3) = 1.0;
  const std::vector<std::pair<const char*, DescriptorSystem>> singular = {
      {"zero", pencilSystem(Matrix::zeros(2, 2), Matrix::zeros(2, 2))},
      {"L1", pencilSystem(e2, a2)},
      {"L2", pencilSystem(e4, a4)},
  };
  for (const auto& [name, g] : singular) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(isRegular(g));
    EXPECT_FALSE(spectrum(g).regular);
    EXPECT_THROW(censusModes(g), std::runtime_error);
    EXPECT_THROW(hasStableFiniteModes(g), std::runtime_error);
  }
}

}  // namespace
}  // namespace shhpass::ds
