// Robustness / failure-injection tests: hostile scales, degenerate inputs,
// and API misuse must produce exceptions or clean verdicts, never crashes
// or silent garbage.
#include <gtest/gtest.h>

#include <cmath>

#include "api/analyzer.hpp"
#include "circuits/generators.hpp"
#include "circuits/mna.hpp"
#include "core/passivity_test.hpp"
#include "ds/balance.hpp"
#include "ds/descriptor.hpp"
#include "lmi/lmi_passivity.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using linalg::Matrix;

TEST(Robustness, ExtremeUnitScales) {
  // Femtofarad / picohenry / megaohm units: 1e-15 vs 1e6 dynamic range.
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  opt.c = 1e-15;
  opt.l = 1e-12;
  opt.r = 1e6;
  opt.shuntR = 5e6;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  core::PassivityResult r = core::testPassivityShh(g);
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
}

TEST(Robustness, ScaledPortCapLaddersAreOk) {
  // Millihenry / femtofarad ladders across six decades of R are passive
  // by physics, so each must analyze to OK: the expected verdict is
  // exact, not a tolerance.
  for (double r : {1e-3, 1.0, 1e3}) {
    circuits::LadderOptions opt;
    opt.sections = 3;
    opt.capAtPort = true;
    opt.l = 1e-3;
    opt.c = 1e-15;
    opt.r = r;
    api::Result<api::AnalysisReport> report =
        api::PassivityAnalyzer().analyze(circuits::makeRlcLadder(opt));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report->verdict, api::ErrorCode::Ok)
        << "R=" << r << ": " << api::errorCodeName(report->verdict);
  }
}

TEST(Robustness, TinyAndHugeUniformScaling) {
  // G and alpha*G have identical passivity for alpha > 0; verify the
  // verdict survives scaling B, C by 1e+-8.
  circuits::LadderOptions opt;
  opt.sections = 2;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  for (double alpha : {1e-8, 1e8}) {
    ds::DescriptorSystem scaled = g;
    scaled.c = alpha * scaled.c;
    core::PassivityResult r = core::testPassivityShh(scaled);
    EXPECT_TRUE(r.passive)
        << "alpha=" << alpha << ": " << core::failureStageName(r.failure);
  }
}

TEST(Robustness, ZeroTransferFunctionIsPassiveBoundary) {
  // G == 0 (B = C = D = 0): passive (dissipates nothing, generates
  // nothing). The pipeline must not divide by a zero scale anywhere.
  ds::DescriptorSystem g;
  g.e = Matrix::identity(3);
  g.a = -1.0 * Matrix::identity(3);
  g.b = Matrix(3, 1);
  g.c = Matrix(1, 3);
  g.d = Matrix(1, 1);
  core::PassivityResult r = core::testPassivityShh(g);
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
}

TEST(Robustness, PureResistorNetworkStatic) {
  // All-resistive network: E = 0 entirely, G(s) = const > 0.
  circuits::Netlist net(2);
  net.addResistor(1, 2, 2.0);
  net.addResistor(2, 0, 3.0);
  net.addPort(1);
  ds::DescriptorSystem g = circuits::stampMna(net);
  EXPECT_EQ(g.e.maxAbs(), 0.0);
  core::PassivityResult r = core::testPassivityShh(g);
  EXPECT_TRUE(r.passive) << core::failureStageName(r.failure);
  ds::TransferValue z = ds::evalTransfer(g, 0.0, 1.0);
  EXPECT_NEAR(z.re(0, 0), 5.0, 1e-10);
}

TEST(Robustness, SingleStateEdgeCases) {
  // Order-1 descriptor systems through the whole pipeline.
  ds::DescriptorSystem dyn;  // G = 1/(s+1)
  dyn.e = Matrix{{1.0}};
  dyn.a = Matrix{{-1.0}};
  dyn.b = Matrix{{1.0}};
  dyn.c = Matrix{{1.0}};
  dyn.d = Matrix{{0.0}};
  EXPECT_TRUE(core::testPassivityShh(dyn).passive);

  ds::DescriptorSystem nondyn;  // E = 0: G = -c b / a = 1 (static)
  nondyn.e = Matrix{{0.0}};
  nondyn.a = Matrix{{-1.0}};
  nondyn.b = Matrix{{1.0}};
  nondyn.c = Matrix{{1.0}};
  nondyn.d = Matrix{{0.0}};
  EXPECT_TRUE(core::testPassivityShh(nondyn).passive);
}

TEST(Robustness, MimoPortCountMismatchCaught) {
  ds::DescriptorSystem g;
  g.e = Matrix::identity(2);
  g.a = -1.0 * Matrix::identity(2);
  g.b = Matrix(2, 3, 0.1);
  g.c = Matrix(2, 2, 0.1);
  g.d = Matrix(2, 3);
  EXPECT_EQ(core::testPassivityShh(g).failure,
            core::FailureStage::NotSquare);
  EXPECT_THROW(lmi::testPassivityLmi(g), std::invalid_argument);
}

TEST(Robustness, BalanceHandlesZeroRowsAndColumns) {
  // A state completely decoupled in E and A rows must not produce NaNs.
  ds::DescriptorSystem g;
  g.e = Matrix::zeros(2, 2);
  g.e(0, 0) = 1.0;
  g.a = Matrix::zeros(2, 2);
  g.a(0, 0) = -1.0;
  g.a(1, 1) = -1.0;
  g.b = Matrix{{1.0}, {0.0}};
  g.c = Matrix{{1.0, 0.0}};
  g.d = Matrix{{0.0}};
  ds::BalancedSystem bal = ds::balanceDescriptor(g);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_FALSE(std::isnan(bal.sys.e(i, j)));
      EXPECT_FALSE(std::isnan(bal.sys.a(i, j)));
    }
}

TEST(Robustness, RepeatedInvocationDeterminism) {
  // No hidden state: two runs give bit-identical diagnostics.
  ds::DescriptorSystem g = circuits::makeRandomRlcNetwork(7, 99);
  core::PassivityResult a = core::testPassivityShh(g);
  core::PassivityResult b = core::testPassivityShh(g);
  EXPECT_EQ(a.passive, b.passive);
  EXPECT_EQ(a.removedImpulsive, b.removedImpulsive);
  EXPECT_EQ(a.removedNondynamic, b.removedNondynamic);
  EXPECT_TRUE(a.m1.approxEqual(b.m1, 0.0));
}

TEST(Robustness, ImpulsiveBenchmarkModelsNoFalseLosslessVerdict) {
  // Regression: before the residual-checked Schur reordering, the long
  // bubbling sequences on the proper-part Hamiltonian of
  // makeBenchmarkModel(25, true) drifted eigenvalues across the imaginary
  // axis, miscounted the stable/antistable split, and produced a false
  // LOSSLESS_AXIS_MODES verdict on a passive RLC ladder. All impulsive
  // benchmark orders must now come back passive, with every adjacent-block
  // exchange accepted.
  for (std::size_t order : {25u, 30u, 35u}) {
    ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, true);
    core::PassivityResult r = core::testPassivityShh(g);
    EXPECT_TRUE(r.passive)
        << "order=" << order << ": " << core::failureStageName(r.failure);
    EXPECT_NE(r.failure, core::FailureStage::LosslessAxisModes)
        << "order=" << order;
    EXPECT_EQ(r.reorder.rejectedSwaps, 0u) << "order=" << order;
    EXPECT_GT(r.reorder.swaps, 0u) << "order=" << order;
  }
}

TEST(Robustness, NearlyPassiveBoundaryCases) {
  // G = eps + 1/(s+1) for tiny eps stays passive; G = -eps + ... flips
  // once eps is resolvable. Verifies the verdict degrades monotonically.
  for (double eps : {1e-3, 1e-2, 1e-1}) {
    ds::DescriptorSystem g;
    g.e = Matrix{{1.0}};
    g.a = Matrix{{-1.0}};
    g.b = Matrix{{1.0}};
    g.c = Matrix{{1.0}};
    g.d = Matrix{{-eps}};
    // Re G(j inf) = -eps < 0: non-passive at any resolvable eps.
    EXPECT_FALSE(core::testPassivityShh(g).passive) << eps;
  }
}

}  // namespace
}  // namespace shhpass
