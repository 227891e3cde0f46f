// Tests for the passivity-margin extension and feedthrough enforcement.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>

#include "api/shhpass.hpp"
#include "circuits/generators.hpp"
#include "core/margin.hpp"
#include "ds/descriptor.hpp"
#include "test_support.hpp"

namespace shhpass::core {
namespace {

using linalg::Matrix;

TEST(Margin, KnownFirstOrderSystem) {
  // G(s) = 0.5 + 1/(s+1): min_w Re G = 0.5 (at w = inf), margin = 0.5.
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{-1.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{0.5}};
  PassivityMargin pm = passivityMargin(g);
  ASSERT_TRUE(pm.defined);
  EXPECT_NEAR(pm.margin, 0.5, 1e-4);
}

TEST(Margin, NegativeForNonPassive) {
  // G(s) = -0.25 + 1/(s+1): Re G(j inf) = -0.25, margin = -0.25.
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{-1.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{-0.25}};
  PassivityMargin pm = passivityMargin(g);
  ASSERT_TRUE(pm.defined);
  EXPECT_NEAR(pm.margin, -0.25, 1e-4);
}

TEST(Margin, MatchesFrequencySweepOnLadder) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  PassivityMargin pm = passivityMargin(g);
  ASSERT_TRUE(pm.defined);
  // Direct sweep reference (coarse).
  double sweep = ds::popovMinEigenvalueDs(g, 0.0);
  for (double w = 1e-2; w < 1e9; w *= 1.6)
    sweep = std::min(sweep, ds::popovMinEigenvalueDs(g, w));
  EXPECT_NEAR(pm.margin, sweep / 2.0, 1e-3 * (1.0 + std::abs(sweep)));
  EXPECT_GE(pm.margin, -1e-9);  // passive ladder
}

TEST(Margin, ImpulsiveLadderStillDefined) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  PassivityMargin pm = passivityMargin(g);
  EXPECT_TRUE(pm.defined);
  EXPECT_GE(pm.margin, -1e-9);
}

TEST(Margin, UndefinedForStructuralDefects) {
  PassivityMargin pm =
      passivityMargin(circuits::makeNonPassiveIndefiniteM1());
  EXPECT_FALSE(pm.defined);
  EXPECT_EQ(pm.structuralDefect, FailureStage::M1NotPsd);
}

TEST(Margin, UndefinedForUnstable) {
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{1.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{1.0}};
  PassivityMargin pm = passivityMargin(g);
  EXPECT_FALSE(pm.defined);
  EXPECT_EQ(pm.structuralDefect, FailureStage::UnstableFiniteModes);
}

ds::DescriptorSystem firstOrder(double d) {
  ds::DescriptorSystem g;
  g.e = Matrix{{1.0}};
  g.a = Matrix{{-1.0}};
  g.b = Matrix{{1.0}};
  g.c = Matrix{{1.0}};
  g.d = Matrix{{d}};
  return g;
}

TEST(Margin, AnalyzerMarginEqualsStandaloneWrapper) {
  // The analyzer bisects on its own proper part; the standalone wrapper
  // runs the same pipeline first. Both must agree bit for bit on every
  // branch: passive, PROPER_PART_NOT_PR (negative margin), and the
  // structural defects that leave the margin undefined.
  ds::DescriptorSystem unstable = firstOrder(1.0);
  unstable.a(0, 0) = 1.0;
  const struct {
    const char* name;
    ds::DescriptorSystem g;
    bool defined;
    FailureStage defect;
  } cases[] = {
      {"first-order 0.5", firstOrder(0.5), true, FailureStage::None},
      {"negative feedthrough",
       circuits::makeNonPassiveNegativeFeedthrough(3), true,
       FailureStage::None},
      {"indefinite M1", circuits::makeNonPassiveIndefiniteM1(), false,
       FailureStage::M1NotPsd},
      {"unstable", unstable, false, FailureStage::UnstableFiniteModes},
  };
  const api::PassivityAnalyzer analyzer;
  for (const auto& c : cases) {
    api::AnalysisRequest req;
    req.system = c.g;
    req.marginTol = 1e-6;
    const api::Result<api::AnalysisReport> r = analyzer.analyze(req);
    ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().toString();
    ASSERT_TRUE(r->margin.has_value()) << c.name;
    const PassivityMargin standalone = passivityMargin(c.g, 1e-6);
    EXPECT_EQ(r->margin->defined, c.defined) << c.name;
    EXPECT_EQ(r->margin->structuralDefect, c.defect) << c.name;
    EXPECT_EQ(standalone.defined, c.defined) << c.name;
    EXPECT_EQ(standalone.structuralDefect, c.defect) << c.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r->margin->margin),
              std::bit_cast<std::uint64_t>(standalone.margin))
        << c.name << ": " << r->margin->margin << " vs "
        << standalone.margin;
    // PROPER_PART_NOT_PR reports its deficit as a negative margin.
    if (r->verdict == api::ErrorCode::ProperPartNotPr)
      EXPECT_LT(r->margin->margin, 0.0) << c.name;
  }
}

TEST(Margin, SignAgreesWithVerdictAtEachImagTol) {
  // Passive runs have margin >= 0 and PROPER_PART_NOT_PR runs margin < 0
  // at any imagTol: the bisection takes its delta = 0 probe from the run's
  // own verdict, so every shifted probe must use the run's tolerance too.
  circuits::LadderOptions ladder;
  ladder.sections = 4;
  ladder.capAtPort = true;  // D = 0: the pr-test samples G(jw)
  const ds::DescriptorSystem capLadder = circuits::makeRlcLadder(ladder);
  ds::DescriptorSystem flipped = capLadder;  // -G: sampled and not PR
  flipped.c *= -1.0;
  const ds::DescriptorSystem systems[] = {
      capLadder,
      flipped,
      firstOrder(0.5),
      firstOrder(-0.25),
      circuits::makeNonPassiveNegativeFeedthrough(3),
      circuits::makeRandomRlcNetwork(8, 5),
      circuits::makeRandomRlcNetwork(12, 9),
  };
  for (double imagTol : {1e-8, 1e-6}) {
    api::AnalyzerOptions options;
    options.passivity.imagTol = imagTol;
    const api::PassivityAnalyzer analyzer(options);
    int passive = 0, notPr = 0;
    for (std::size_t i = 0; i < std::size(systems); ++i) {
      api::AnalysisRequest req;
      req.system = systems[i];
      req.marginTol = 1e-6;
      const api::Result<api::AnalysisReport> r = analyzer.analyze(req);
      ASSERT_TRUE(r.ok()) << i << ": " << r.status().toString();
      ASSERT_TRUE(r->margin.has_value()) << i;
      const PassivityMargin& pm = *r->margin;
      if (r->verdict == api::ErrorCode::Ok) {
        ++passive;
        ASSERT_TRUE(pm.defined) << i;
        EXPECT_GE(pm.margin, 0.0) << i << " imagTol=" << imagTol;
      } else if (r->verdict == api::ErrorCode::ProperPartNotPr) {
        ++notPr;
        ASSERT_TRUE(pm.defined) << i;
        EXPECT_LT(pm.margin, 0.0) << i << " imagTol=" << imagTol;
      }
      // The analyzer threads its imagTol into the bisection.
      const PassivityMargin direct = marginOfRun(
          testPassivityShh(systems[i], options.passivity), 1e-6, imagTol);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.margin),
                std::bit_cast<std::uint64_t>(pm.margin))
          << i << " imagTol=" << imagTol;
    }
    EXPECT_GE(passive, 3) << "imagTol=" << imagTol;
    EXPECT_GE(notPr, 2) << "imagTol=" << imagTol;
  }
}

TEST(Margin, WrapperRejectsNonFiniteInput) {
  ds::DescriptorSystem g = firstOrder(0.5);
  g.a(0, 0) = std::nan("");
  EXPECT_THROW(passivityMargin(g), std::invalid_argument);
}

TEST(Enforcement, RepairsNegativeFeedthrough) {
  ds::DescriptorSystem bad = circuits::makeNonPassiveNegativeFeedthrough(3);
  ASSERT_FALSE(testPassivityShh(bad).passive);
  ds::DescriptorSystem fixed = enforcePassivity(bad, 1e-6);
  EXPECT_TRUE(testPassivityShh(fixed).passive)
      << failureStageName(testPassivityShh(fixed).failure);
  // The repair is minimal-ish: the shift should be close to 0.02.
  EXPECT_NEAR(fixed.d(0, 0) - bad.d(0, 0), 0.02, 5e-3);
}

TEST(Enforcement, PassiveInputUnchanged) {
  circuits::LadderOptions opt;
  opt.sections = 2;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  ds::DescriptorSystem same = enforcePassivity(g);
  EXPECT_EQ(same.d.maxAbs(), g.d.maxAbs());
}

TEST(Enforcement, ThrowsOnStructuralDefect) {
  EXPECT_THROW(enforcePassivity(circuits::makeNonPassiveIndefiniteM1()),
               std::invalid_argument);
}

}  // namespace
}  // namespace shhpass::core
