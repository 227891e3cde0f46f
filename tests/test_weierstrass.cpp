// Tests for the Weierstrass decomposition and the baseline passivity test
// built on it.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/weierstrass.hpp"
#include "circuits/generators.hpp"
#include "test_support.hpp"

namespace shhpass::ds {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;

// Reference: evaluate the Weierstrass form's transfer function explicitly
// at s = jw and compare with the original system.
void expectSameTransfer(const DescriptorSystem& sys, const WeierstrassForm& wf,
                        double w, double tol) {
  TransferValue gOrig = evalTransfer(sys, 0.0, w);
  // Proper part via a descriptor wrapper.
  DescriptorSystem proper;
  proper.e = Matrix::identity(wf.numFinite());
  proper.a = wf.ap;
  proper.b = wf.bp;
  proper.c = wf.cp;
  proper.d = wf.d;
  TransferValue g = evalTransfer(proper, 0.0, w);
  // Infinite part: Cinf (jw N - I)^{-1} Binf = -Cinf (sum (jw)^k N^k) Binf.
  const std::size_t k = wf.numInfinite();
  if (k > 0) {
    Matrix re = g.re, im = g.im;
    // Accumulate -Cinf N^p Binf * (jw)^p.
    Matrix power = Matrix::identity(k);
    double jwRe = 1.0, jwIm = 0.0;
    for (std::size_t p = 0; p <= k; ++p) {
      Matrix term = -1.0 * (wf.cinf * power * wf.binf);
      re += jwRe * term;
      im += jwIm * term;
      power = power * wf.n;
      const double nr = -jwIm * w, ni = jwRe * w;  // multiply by jw
      jwRe = nr;
      jwIm = ni;
    }
    g.re = re;
    g.im = im;
  }
  expectMatrixNear(gOrig.re, g.re, tol);
  expectMatrixNear(gOrig.im, g.im, tol);
}

TEST(Weierstrass, FirstOrderRegularSystem) {
  DescriptorSystem sys;
  sys.e = Matrix{{2.0}};
  sys.a = Matrix{{-4.0}};
  sys.b = Matrix{{1.0}};
  sys.c = Matrix{{1.0}};
  sys.d = Matrix{{0.0}};
  WeierstrassForm wf = weierstrass(sys);
  EXPECT_EQ(wf.numFinite(), 1u);
  EXPECT_EQ(wf.numInfinite(), 0u);
  // G(s) = 1/(2s+4) -> pole at -2.
  EXPECT_NEAR(wf.ap(0, 0), -2.0, 1e-9);
  expectSameTransfer(sys, wf, 0.7, 1e-9);
}

TEST(Weierstrass, PureDifferentiator) {
  DescriptorSystem sys;
  sys.e = Matrix{{0.0, 1.0}, {0.0, 0.0}};
  sys.a = Matrix::identity(2);
  sys.b = Matrix{{0.0}, {1.0}};
  sys.c = Matrix{{-1.0, 0.0}};
  sys.d = Matrix{{0.0}};
  WeierstrassForm wf = weierstrass(sys);
  EXPECT_EQ(wf.numFinite(), 0u);
  EXPECT_EQ(wf.numInfinite(), 2u);
  auto mk = wf.markovParameters(3);
  EXPECT_NEAR(mk[0](0, 0), 0.0, 1e-9);  // M0
  EXPECT_NEAR(mk[1](0, 0), 1.0, 1e-9);  // M1 = 1 (G = s)
  EXPECT_NEAR(mk[2](0, 0), 0.0, 1e-9);  // M2
}

TEST(Weierstrass, NilpotencyOfN) {
  circuits::LadderOptions opt;
  opt.sections = 4;
  DescriptorSystem sys = circuits::makeRlcLadder(opt);
  WeierstrassForm wf = weierstrass(sys);
  const std::size_t k = wf.numInfinite();
  ASSERT_GT(k, 0u);
  // N^k == 0 exactly (strictly upper triangular by construction).
  Matrix power = Matrix::identity(k);
  for (std::size_t p = 0; p < k; ++p) power = power * wf.n;
  EXPECT_EQ(power.maxAbs(), 0.0);
}

TEST(Weierstrass, TransferMatchOnLadder) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  DescriptorSystem sys = circuits::makeRlcLadder(opt);
  WeierstrassForm wf = weierstrass(sys);
  EXPECT_EQ(wf.numFinite() + wf.numInfinite(), sys.order());
  for (double w : {0.0, 0.3, 2.0, 50.0})
    expectSameTransfer(sys, wf, w, 1e-6 * (1.0 + w));
}

TEST(Weierstrass, ImpulsiveLadderM1IsInductance) {
  // Port without shunt cap: Z(s) ~ s*l at infinity, so M1 = l.
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.l = 2.5e-3;
  DescriptorSystem sys = circuits::makeRlcLadder(opt);
  WeierstrassForm wf = weierstrass(sys);
  auto mk = wf.markovParameters(2);
  EXPECT_NEAR(mk[1](0, 0), opt.l, 1e-9);
  EXPECT_NEAR(mk[2](0, 0), 0.0, 1e-9);
}

TEST(Weierstrass, SingularPencilThrows) {
  DescriptorSystem sys;
  sys.e = Matrix::zeros(2, 2);
  sys.a = Matrix::zeros(2, 2);
  sys.b = Matrix(2, 1);
  sys.c = Matrix(1, 2);
  sys.d = Matrix(1, 1);
  EXPECT_THROW(weierstrass(sys), std::runtime_error);
}

TEST(Weierstrass, ConditioningReported) {
  circuits::LadderOptions opt;
  opt.sections = 5;
  WeierstrassForm wf = weierstrass(circuits::makeRlcLadder(opt));
  EXPECT_GE(wf.condLeft, 1.0);
  EXPECT_GE(wf.condRight, 1.0);
}

TEST(WeierstrassPassivity, PassiveLaddersPass) {
  for (bool impulsive : {false, true}) {
    circuits::LadderOptions opt;
    opt.sections = 4;
    opt.capAtPort = !impulsive;
    if (impulsive) opt.impulsiveEvery = 2;
    DescriptorSystem sys = circuits::makeRlcLadder(opt);
    WeierstrassPassivityResult res = testPassivityWeierstrass(sys);
    EXPECT_TRUE(res.properPartPassive) << "impulsive=" << impulsive;
    EXPECT_TRUE(res.m1Psd) << "impulsive=" << impulsive;
    EXPECT_TRUE(res.higherMarkovZero) << "impulsive=" << impulsive;
    EXPECT_TRUE(res.passive) << "impulsive=" << impulsive;
  }
}

TEST(WeierstrassPassivity, NegativeResistorFails) {
  DescriptorSystem sys = circuits::makeNonPassiveNegativeResistor(4);
  WeierstrassPassivityResult res = testPassivityWeierstrass(sys);
  EXPECT_FALSE(res.passive);
}

TEST(WeierstrassPassivity, IndefiniteM1Fails) {
  WeierstrassPassivityResult res =
      testPassivityWeierstrass(circuits::makeNonPassiveIndefiniteM1());
  EXPECT_FALSE(res.m1Psd);
  EXPECT_FALSE(res.passive);
  EXPECT_TRUE(res.properPartPassive);  // only the impulsive part is bad
}

TEST(WeierstrassPassivity, HigherMarkovFails) {
  WeierstrassPassivityResult res =
      testPassivityWeierstrass(circuits::makeNonPassiveHigherOrderImpulse());
  EXPECT_FALSE(res.higherMarkovZero);
  EXPECT_FALSE(res.passive);
}

TEST(WeierstrassPassivity, TwoPortLadder) {
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.twoPort = true;
  opt.capAtPort = true;
  WeierstrassPassivityResult res =
      testPassivityWeierstrass(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(res.passive);
}

}  // namespace
}  // namespace shhpass::ds
