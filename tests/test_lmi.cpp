// Tests for the from-scratch SDP feasibility solver and the Freund-Jarre
// LMI passivity baseline.
#include <gtest/gtest.h>

#include "baselines/lmi_passivity.hpp"
#include "baselines/sdp_solver.hpp"
#include "circuits/generators.hpp"
#include "test_support.hpp"

namespace shhpass::lmi {
namespace {

using linalg::Matrix;

TEST(SdpSolver, TrivialFeasible) {
  // S(x) = I + x * I >= 0: feasible with margin.
  SdpBlock b;
  b.a0 = Matrix::identity(2);
  b.basis = {Matrix::identity(2)};
  SdpResult r = solveSdpFeasibility({b});
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.tStar, 0.5);
}

TEST(SdpSolver, InfeasibleBlock) {
  // S(x) = diag(-1 + x, -1 - x): max over x of min eig is -1 < 0.
  SdpBlock b;
  b.a0 = Matrix::diag({-1.0, -1.0});
  Matrix basis = Matrix::diag({1.0, -1.0});
  b.basis = {basis};
  SdpResult r = solveSdpFeasibility({b});
  EXPECT_FALSE(r.feasible);
  EXPECT_NEAR(r.tStar, -1.0, 1e-3);
}

TEST(SdpSolver, TwoVariableKnownOptimum) {
  // S(x) = [x1 0.5; 0.5 x2] - the max-t of min-eig over the unit-bounded...
  // With free x, t* is unbounded; cap behavior: solver should at least
  // certify feasibility quickly.
  SdpBlock b;
  b.a0 = Matrix{{0.0, 0.5}, {0.5, 0.0}};
  Matrix e11(2, 2), e22(2, 2);
  e11(0, 0) = 1.0;
  e22(1, 1) = 1.0;
  b.basis = {e11, e22};
  SdpResult r = solveSdpFeasibility({b});
  EXPECT_TRUE(r.feasible);
}

TEST(SdpSolver, MultipleBlocksCoupled) {
  // Block1: 1 - x >= 0, Block2: x - 0.5 >= 0: feasible iff x in [0.5, 1].
  SdpBlock b1, b2;
  b1.a0 = Matrix{{1.0}};
  b1.basis = {Matrix{{-1.0}}};
  b2.a0 = Matrix{{-0.5}};
  b2.basis = {Matrix{{1.0}}};
  SdpResult r = solveSdpFeasibility({b1, b2});
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.x[0], 0.4);
  EXPECT_LE(r.x[0], 1.1);
}

TEST(SdpSolver, MultipleBlocksInfeasible) {
  // Block1: -1 - x^... Block1: -0.2 - x >= 0, Block2: x - 0.2 >= 0:
  // x <= -0.2 and x >= 0.2: infeasible.
  SdpBlock b1, b2;
  b1.a0 = Matrix{{-0.2}};
  b1.basis = {Matrix{{-1.0}}};
  b2.a0 = Matrix{{-0.2}};
  b2.basis = {Matrix{{1.0}}};
  SdpResult r = solveSdpFeasibility({b1, b2});
  EXPECT_FALSE(r.feasible);
  EXPECT_NEAR(r.tStar, -0.2, 1e-3);
}

TEST(SdpSolver, RejectsBadInput) {
  EXPECT_THROW(solveSdpFeasibility({}), std::invalid_argument);
  SdpBlock b1, b2;
  b1.a0 = Matrix::identity(2);
  b1.basis = {Matrix::identity(2)};
  b2.a0 = Matrix::identity(2);
  b2.basis = {Matrix::identity(2), Matrix::identity(2)};
  EXPECT_THROW(solveSdpFeasibility({b1, b2}), std::invalid_argument);
}

TEST(LmiPassivity, RegularPassiveSystem) {
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{-1.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{0.5}};
  LmiPassivityResult r = testPassivityLmi(g);
  EXPECT_TRUE(r.passive);
  EXPECT_EQ(r.variables, 1u);
}

TEST(LmiPassivity, RegularNonPassiveSystem) {
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{-1.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{-1.0}};
  g.d = Matrix{{-0.4}};  // G(inf) < 0
  LmiPassivityResult r = testPassivityLmi(g);
  EXPECT_FALSE(r.passive);
}

TEST(LmiPassivity, ImpulseFreeLadderFeasible) {
  circuits::LadderOptions opt;
  opt.sections = 2;
  opt.capAtPort = true;
  LmiPassivityResult r = testPassivityLmi(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive);
  EXPECT_GT(r.variables, 0u);
}

TEST(LmiPassivity, ImpulsiveLadderFeasible) {
  circuits::LadderOptions opt;
  opt.sections = 2;
  LmiPassivityResult r = testPassivityLmi(circuits::makeRlcLadder(opt));
  EXPECT_TRUE(r.passive);
}

TEST(LmiPassivity, NegativeFeedthroughInfeasible) {
  LmiPassivityResult r =
      testPassivityLmi(circuits::makeNonPassiveNegativeFeedthrough(2));
  EXPECT_FALSE(r.passive);
}

TEST(LmiPassivity, AgreesWithShhOnSmallModels) {
  for (bool impulsive : {false, true}) {
    ds::DescriptorSystem g = circuits::makeBenchmarkModel(8, impulsive);
    LmiPassivityResult lmi = testPassivityLmi(g);
    EXPECT_TRUE(lmi.passive) << "impulsive=" << impulsive;
  }
}

}  // namespace
}  // namespace shhpass::lmi
