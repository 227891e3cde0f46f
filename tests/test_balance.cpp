// Tests for pencil balancing: exactness of the transfer-function
// relationship and its effect on the dynamic range of physical-unit models.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/generators.hpp"
#include "ds/balance.hpp"
#include "test_support.hpp"

namespace shhpass::ds {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;

TEST(Balance, FrequencyScalingRelationHolds) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  DescriptorSystem g = circuits::makeRlcLadder(opt);
  BalancedSystem bal = balanceDescriptor(g);
  // G_bal(s) = G(tau * s): compare at several frequencies.
  for (double w : {0.5, 3.0, 1e3}) {
    TransferValue gb = evalTransfer(bal.sys, 0.0, w);
    TransferValue go = evalTransfer(g, 0.0, w * bal.freqScale);
    expectMatrixNear(gb.re, go.re, 1e-9 * (1.0 + go.re.maxAbs()));
    expectMatrixNear(gb.im, go.im, 1e-9 * (1.0 + go.im.maxAbs()));
  }
}

TEST(Balance, ReducesDynamicRange) {
  circuits::LadderOptions opt;
  opt.sections = 5;
  // Physical units: C ~ 1e-6, L ~ 1e-3, R ~ 1.
  DescriptorSystem g = circuits::makeRlcLadder(opt);
  BalancedSystem bal = balanceDescriptor(g);
  auto spread = [](const Matrix& e, const Matrix& a) {
    double lo = 1e300, hi = 0.0;
    for (const Matrix* m : {&e, &a})
      for (std::size_t i = 0; i < m->rows(); ++i)
        for (std::size_t j = 0; j < m->cols(); ++j) {
          const double v = std::abs((*m)(i, j));
          if (v > 0) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        }
    return hi / lo;
  };
  EXPECT_LT(spread(bal.sys.e, bal.sys.a), spread(g.e, g.a));
  // All row/col maxima of the balanced pencil are within a couple of
  // binades of 1.
  for (std::size_t i = 0; i < bal.sys.order(); ++i) {
    double rmax = 0.0;
    for (std::size_t j = 0; j < bal.sys.order(); ++j)
      rmax = std::max({rmax, std::abs(bal.sys.e(i, j)),
                       std::abs(bal.sys.a(i, j))});
    EXPECT_GT(rmax, 0.24);
    EXPECT_LT(rmax, 4.1);
  }
}

TEST(Balance, PreservesRegularityAndModeStructure) {
  circuits::LadderOptions opt;
  opt.sections = 4;
  DescriptorSystem g = circuits::makeRlcLadder(opt);
  BalancedSystem bal = balanceDescriptor(g);
  EXPECT_TRUE(isRegular(bal.sys));
  EXPECT_EQ(hasStableFiniteModes(g), hasStableFiniteModes(bal.sys));
}

TEST(Balance, IdentityOnEmptySystem) {
  DescriptorSystem g;
  g.e = Matrix();
  g.a = Matrix();
  g.b = Matrix(0, 1);
  g.c = Matrix(1, 0);
  g.d = Matrix(1, 1);
  BalancedSystem bal = balanceDescriptor(g);
  EXPECT_EQ(bal.freqScale, 1.0);
  EXPECT_EQ(bal.sys.order(), 0u);
}

TEST(Balance, VerdictInvariance) {
  // The passivity verdict must be identical with and without balancing on
  // a well-scaled model.
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.l = 0.5;
  opt.c = 0.25;
  opt.capAtPort = true;
  DescriptorSystem g = circuits::makeRlcLadder(opt);
  core::PassivityOptions with, without;
  without.balance = false;
  EXPECT_EQ(testing::pipelineReport(g, with).passive,
            testing::pipelineReport(g, without).passive);
}

TEST(Balance, M1ReportedInOriginalUnits) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.l = 3.7e-3;
  api::AnalysisReport r =
      testing::pipelineReport(circuits::makeRlcLadder(opt));
  ASSERT_TRUE(r.passive);
  EXPECT_NEAR(r.m1(0, 0), opt.l, 1e-8);
}

}  // namespace
}  // namespace shhpass::ds
