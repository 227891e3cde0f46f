// Tests of the unified public API: the Status/Result error model and its
// FailureStage mapping, the stage-pipeline engine, the analyzer facade
// (error paths, JSON reports), and batch/sequential agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/shhpass.hpp"
#include "core/phi_builder.hpp"
#include "linalg/schur_multishift.hpp"
#include "test_support.hpp"

namespace shhpass::api {
namespace {

using linalg::Matrix;

// ------------------------------------------------------------ Status model

TEST(ApiStatus, EveryFailureStageMapsToADistinctCode) {
  const core::FailureStage stages[] = {
      core::FailureStage::None,
      core::FailureStage::NotSquare,
      core::FailureStage::SingularPencil,
      core::FailureStage::UnstableFiniteModes,
      core::FailureStage::ResidualImpulses,
      core::FailureStage::HigherOrderImpulse,
      core::FailureStage::M1NotPsd,
      core::FailureStage::LosslessAxisModes,
      core::FailureStage::ProperPartNotPr,
  };
  std::vector<ErrorCode> seen;
  for (core::FailureStage s : stages) {
    const ErrorCode code = errorCodeFromFailureStage(s);
    // Distinct codes per stage.
    for (ErrorCode prior : seen) EXPECT_NE(code, prior);
    seen.push_back(code);
    // Round trip.
    auto back = failureStageFromErrorCode(code);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
    // Verdict classification: every stage except None is a verdict code.
    EXPECT_EQ(isVerdictCode(code), s != core::FailureStage::None);
    // Codes have stable names.
    EXPECT_STRNE(errorCodeName(code), "UNKNOWN");
  }
}

TEST(ApiStatus, OperationalErrorsAreNotVerdictsAndHaveNoStage) {
  for (ErrorCode code :
       {ErrorCode::InvalidArgument, ErrorCode::NumericalFailure,
        ErrorCode::SchurNoConvergence, ErrorCode::NetlistParseError,
        ErrorCode::Internal}) {
    EXPECT_FALSE(isVerdictCode(code));
    EXPECT_FALSE(failureStageFromErrorCode(code).has_value());
  }
}

// ------------------------------------------------------- netlist ingestion

TEST(ApiIngest, ParseFailureMapsToNetlistParseErrorWithDiagnostics) {
  // Two defects on known lines: both typed diagnostics must survive the
  // Status mapping, line numbers included.
  Result<LoadedNetlist> r = parseNetlist(
      "R1 1 0 5\n"
      "C1 1 0 bogus\n"
      "R2 2 2 4\n"
      ".port 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::NetlistParseError);
  EXPECT_STREQ(errorCodeName(r.status().code()), "NETLIST_PARSE_ERROR");
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("line 2: [BAD_VALUE]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3: [SHORTED_ELEMENT]"), std::string::npos) << msg;
}

TEST(ApiIngest, UnreadableFileMapsToNetlistParseError) {
  Result<LoadedNetlist> r = loadNetlist("/nonexistent/shhpass.cir");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::NetlistParseError);
  EXPECT_NE(r.status().message().find("[FILE_ERROR]"), std::string::npos);
}

bool bitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

TEST(ApiIngest, LoadSystemIsLoadNetlistThenStamp) {
  // Every golden netlist file, under the default and the mutant-admitting
  // parse options: the one-call entry point yields the two-step result,
  // bit for bit (or the same parse error).
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(SHHPASS_TEST_DATA_DIR))
    if (entry.path().extension() == ".cir")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty());
  circuits::SpiceParseOptions active;
  active.allowActiveElements = true;
  for (const std::string& path : paths) {
    for (const circuits::SpiceParseOptions& opts :
         {circuits::SpiceParseOptions{}, active}) {
      SCOPED_TRACE(path + (opts.allowActiveElements ? " (active)" : ""));
      Result<ds::DescriptorSystem> one = loadSystem(path, opts);
      Result<LoadedNetlist> loaded = loadNetlist(path, opts);
      if (!loaded.ok()) {
        ASSERT_FALSE(one.ok());
        EXPECT_EQ(one.status().code(), loaded.status().code());
        EXPECT_EQ(one.status().message(), loaded.status().message());
        continue;
      }
      Result<ds::DescriptorSystem> two = stampNetlist(loaded->netlist);
      ASSERT_TRUE(two.ok()) << two.status().toString();
      ASSERT_TRUE(one.ok()) << one.status().toString();
      EXPECT_TRUE(bitEqual(one->e, two->e));
      EXPECT_TRUE(bitEqual(one->a, two->a));
      EXPECT_TRUE(bitEqual(one->b, two->b));
      EXPECT_TRUE(bitEqual(one->c, two->c));
      EXPECT_TRUE(bitEqual(one->d, two->d));
    }
  }
  // At least the mutant-admitting pass loads every file.
  for (const std::string& path : paths)
    EXPECT_TRUE(loadSystem(path, active).ok()) << path;
}

TEST(ApiIngest, LoadSystemOfAMissingFileIsAParseError) {
  Result<ds::DescriptorSystem> r = loadSystem("/nonexistent/shhpass.cir");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::NetlistParseError);
  EXPECT_NE(r.status().message().find("[FILE_ERROR]"), std::string::npos);
}

TEST(ApiIngest, ParseStampAnalyzeEndToEnd) {
  Result<LoadedNetlist> loaded = parseNetlist(
      "* quickstart one-port\n"
      "L1 1 2 0.5\n"
      "C1 2 0 0.25\n"
      "R1 2 0 2\n"
      ".port 1\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  Result<ds::DescriptorSystem> sys = stampNetlist(loaded->netlist);
  ASSERT_TRUE(sys.ok()) << sys.status().toString();
  const PassivityAnalyzer analyzer;
  Result<AnalysisReport> report = analyzer.analyze(*sys);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->passive);
  EXPECT_NEAR(report->m1(0, 0), 0.5, 1e-10);  // M1 = L
}

TEST(ApiIngest, BuilderValidationSurfacesAsTypedStatus) {
  // The raw Netlist builder throws std::invalid_argument; through the
  // API boundary every validation failure is a typed Status instead.
  Result<circuits::Netlist> shorted = buildNetlist(
      2, [](circuits::Netlist& net) { net.addResistor(1, 1, 5.0); });
  ASSERT_FALSE(shorted.ok());
  EXPECT_EQ(shorted.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(shorted.status().message().find("shorted"), std::string::npos);

  Result<circuits::Netlist> zeroValued = buildNetlist(
      2, [](circuits::Netlist& net) { net.addCapacitor(1, 0, 0.0); });
  ASSERT_FALSE(zeroValued.ok());
  EXPECT_EQ(zeroValued.status().code(), ErrorCode::InvalidArgument);

  Result<circuits::Netlist> badPort =
      buildNetlist(2, [](circuits::Netlist& net) {
        net.addResistor(1, 0, 1.0);
        net.addPort(7);
      });
  ASSERT_FALSE(badPort.ok());
  EXPECT_EQ(badPort.status().code(), ErrorCode::InvalidArgument);

  Result<circuits::Netlist> badSetValue =
      buildNetlist(2, [](circuits::Netlist& net) {
        net.addResistor(1, 0, 1.0);
        net.setComponentValue(0, 0.0);
      });
  ASSERT_FALSE(badSetValue.ok());
  EXPECT_EQ(badSetValue.status().code(), ErrorCode::InvalidArgument);

  Result<circuits::Netlist> good = buildNetlist(2, [](circuits::Netlist& n) {
    n.addInductor(1, 2, 0.5).addCapacitor(2, 0, 0.25).addResistor(2, 0, 2.0);
    n.addPort(1);
  });
  ASSERT_TRUE(good.ok()) << good.status().toString();
  EXPECT_EQ(good->components().size(), 3u);
}

TEST(ApiIngest, StampingAPortlessNetlistIsTypedNotThrown) {
  Result<circuits::Netlist> net = buildNetlist(
      2, [](circuits::Netlist& n) { n.addResistor(1, 2, 1.0); });
  ASSERT_TRUE(net.ok());
  Result<ds::DescriptorSystem> sys = stampNetlist(*net);
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(sys.status().message().find("no ports"), std::string::npos);
}

TEST(ApiStatus, SchurNonConvergenceMapsToTypedCode) {
  // The 30-iteration non-convergence throw of the QR eigensolvers is a
  // typed exception since the multishift PR; the exception translator
  // must map it to SCHUR_NO_CONVERGENCE, not swallow it into the generic
  // runtime_error -> NUMERICAL_FAILURE bucket.
  Status st;
  try {
    throw linalg::SchurConvergenceError("iteration budget exhausted");
  } catch (...) {
    st = statusFromCurrentException();
  }
  EXPECT_EQ(st.code(), ErrorCode::SchurNoConvergence);
  EXPECT_STREQ(errorCodeName(st.code()), "SCHUR_NO_CONVERGENCE");
  EXPECT_EQ(st.toString(),
            "SCHUR_NO_CONVERGENCE: iteration budget exhausted");
  // Plain runtime errors still map to NUMERICAL_FAILURE.
  try {
    throw std::runtime_error("some other kernel breakdown");
  } catch (...) {
    st = statusFromCurrentException();
  }
  EXPECT_EQ(st.code(), ErrorCode::NumericalFailure);
}

TEST(ApiStatus, StatusBasics) {
  Status ok = Status::okStatus();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.toString(), "OK");

  Status err = Status::error(ErrorCode::InvalidArgument, "bad shape");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::InvalidArgument);
  EXPECT_EQ(err.toString(), "INVALID_ARGUMENT: bad shape");
}

TEST(ApiStatus, ResultHoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(Status::error(ErrorCode::Internal, "boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::Internal);
}

// --------------------------------------------------------------- error paths

TEST(ApiAnalyzer, NonSquareSystemIsANotSquareVerdict) {
  // 1 input, 2 outputs: structurally consistent but not square, so the
  // Fig.-1 flow itself rejects it (power interpretation needs m_in = m_out).
  ds::DescriptorSystem g;
  g.e = Matrix::identity(2);
  g.a = -1.0 * Matrix::identity(2);
  g.b = Matrix(2, 1);
  g.b(0, 0) = 1.0;
  g.c = Matrix::identity(2);
  g.d = Matrix(2, 1);

  PassivityAnalyzer analyzer;
  Result<AnalysisReport> r = analyzer.analyze(g);
  ASSERT_TRUE(r.ok()) << r.status().toString();
  EXPECT_FALSE(r->passive);
  EXPECT_EQ(r->verdict, ErrorCode::NotSquare);
  EXPECT_EQ(r->failure, core::FailureStage::NotSquare);
  // The pipeline stopped in the prerequisites stage.
  ASSERT_EQ(r->stages.size(), 1u);
  EXPECT_EQ(r->stages[0].name, "prerequisites");
  EXPECT_EQ(r->stages[0].status.code(), ErrorCode::NotSquare);
}

TEST(ApiAnalyzer, MalformedSystemIsAnInvalidArgumentError) {
  // B has the wrong row count: validate() rejects the block shapes. The
  // legacy API threw std::invalid_argument; the public API must return a
  // Status instead of leaking the exception.
  ds::DescriptorSystem g;
  g.e = Matrix::identity(3);
  g.a = -1.0 * Matrix::identity(3);
  g.b = Matrix(2, 1);  // wrong: must be 3 x m
  g.c = Matrix(1, 3);
  g.d = Matrix(1, 1);

  PassivityAnalyzer analyzer;
  Result<AnalysisReport> r = analyzer.analyze(g);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
  EXPECT_FALSE(r.status().message().empty());
}

TEST(ApiAnalyzer, NonFiniteEntriesAreInvalidArgumentsNotSchurFailures) {
  // NaN/Inf must be rejected at the boundary (validate() in the
  // prerequisites stage), not burn a QR iteration budget and come back
  // as SCHUR_NO_CONVERGENCE.
  circuits::LadderOptions opt;
  opt.sections = 3;
  const ds::DescriptorSystem good = circuits::makeRlcLadder(opt);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  PassivityAnalyzer analyzer;

  ds::DescriptorSystem nanE = good;
  nanE.e(1, 1) = nan;
  Result<AnalysisReport> r = analyzer.analyze(nanE);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(r.status().message().find("E has a NaN"), std::string::npos)
      << r.status().toString();

  ds::DescriptorSystem infA = good;
  infA.a(0, 1) = -inf;
  r = analyzer.analyze(infA);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(r.status().message().find("A has a NaN"), std::string::npos)
      << r.status().toString();

  ds::DescriptorSystem infD = good;
  infD.d(0, 0) = inf;
  EXPECT_EQ(analyzer.analyze(infD).status().code(),
            ErrorCode::InvalidArgument);
}

TEST(ApiAnalyzer, BadMarginToleranceIsAnInvalidArgument) {
  circuits::LadderOptions opt;
  opt.sections = 2;
  opt.capAtPort = true;
  AnalysisRequest req;
  req.system = circuits::makeRlcLadder(opt);
  PassivityAnalyzer analyzer;
  for (double tol : {0.0, -1e-6, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    req.marginTol = tol;
    Result<AnalysisReport> r = analyzer.analyze(req);
    ASSERT_FALSE(r.ok()) << tol;
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument) << tol;
  }
  req.marginTol = 1e-6;
  Result<AnalysisReport> r = analyzer.analyze(req);
  ASSERT_TRUE(r.ok()) << r.status().toString();
  ASSERT_TRUE(r->margin.has_value());
  EXPECT_TRUE(r->margin->defined);
}

TEST(ApiAnalyzer, NonFiniteToleranceIsAnInvalidArgument) {
  // An infinite or NaN cutoff decides every rank or imaginary-axis test
  // one way: on this passive ladder imagTol = +inf used to come back as
  // LOSSLESS_AXIS_MODES and rankTol = +inf as RESIDUAL_IMPULSES.
  circuits::LadderOptions opt;
  opt.sections = 2;
  opt.capAtPort = true;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<core::PassivityOptions> bad(6);
  bad[0].imagTol = inf;
  bad[1].imagTol = nan;
  bad[2].imagTol = -1e-8;
  bad[3].rankTol = inf;
  bad[4].rankTol = nan;
  bad[5].rankTol = -inf;
  AnalysisRequest req;
  req.system = circuits::makeRlcLadder(opt);
  PassivityAnalyzer analyzer;
  std::vector<AnalysisRequest> batch;
  for (const core::PassivityOptions& o : bad) {
    req.options = o;
    Result<AnalysisReport> r = analyzer.analyze(req);
    ASSERT_FALSE(r.ok()) << o.imagTol << " " << o.rankTol;
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument)
        << o.imagTol << " " << o.rankTol;
    batch.push_back(req);
  }
  for (const Result<AnalysisReport>& r : analyzer.runBatch(batch))
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
  // A negative rankTol is the shared-policy sentinel, imagTol = 0 is a
  // valid (strict) cutoff.
  core::PassivityOptions edge;
  edge.rankTol = -1.0;
  edge.imagTol = 0.0;
  req.options = edge;
  Result<AnalysisReport> r = analyzer.analyze(req);
  ASSERT_TRUE(r.ok()) << r.status().toString();
  EXPECT_TRUE(r->passive);
  // The exception-based wrappers share the check.
  EXPECT_THROW(core::passivityMargin(req.system, 1e-6, inf),
               std::invalid_argument);
  EXPECT_THROW(core::passivityMargin(req.system, 1e-6, nan),
               std::invalid_argument);
}

TEST(ApiJson, MarginIsSerializedOnlyWhenRequested) {
  AnalysisRequest req;
  req.system = circuits::makeNonPassiveIndefiniteM1();
  PassivityAnalyzer analyzer;
  Result<AnalysisReport> plain = analyzer.analyze(req);
  ASSERT_TRUE(plain.ok()) << plain.status().toString();
  EXPECT_FALSE(plain->margin.has_value());
  EXPECT_EQ(plain->toJson().find("\"margin\":"), std::string::npos);

  req.marginTol = 1e-6;
  Result<AnalysisReport> withMargin = analyzer.analyze(req);
  ASSERT_TRUE(withMargin.ok()) << withMargin.status().toString();
  EXPECT_NE(withMargin->toJson().find(
                "\"margin\":{\"defined\":false,"
                "\"structuralDefect\":\"M1_NOT_PSD\"}"),
            std::string::npos)
      << withMargin->toJson();
  // Requesting a margin is part of the decision record.
  EXPECT_FALSE(plain->decisionEquals(*withMargin));

  req.system = circuits::makeNonPassiveNegativeFeedthrough(3);
  withMargin = analyzer.analyze(req);
  ASSERT_TRUE(withMargin.ok()) << withMargin.status().toString();
  EXPECT_NE(withMargin->toJson().find("\"margin\":{\"defined\":true,"
                                      "\"value\":-"),
            std::string::npos)
      << withMargin->toJson();
}

TEST(ApiAnalyzer, DecisionEqualsSeesEveryDecisionField) {
  // Impulsive ladder with a margin: every sub-report is populated.
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.capAtPort = false;
  AnalysisRequest req;
  req.id = "golden";
  req.system = circuits::makeRlcLadder(opt);
  req.marginTol = 1e-6;
  Result<AnalysisReport> golden = PassivityAnalyzer().analyze(req);
  ASSERT_TRUE(golden.ok()) << golden.status().toString();
  ASSERT_TRUE(golden->margin.has_value());
  ASSERT_FALSE(golden->m1.empty());
  ASSERT_EQ(golden->stages.size(), 8u);

  using Mutation = std::function<void(AnalysisReport&)>;
  const std::pair<const char*, Mutation> decisions[] = {
      {"id", [](AnalysisReport& r) { r.id += "x"; }},
      {"passive", [](AnalysisReport& r) { r.passive = !r.passive; }},
      {"verdict",
       [](AnalysisReport& r) { r.verdict = ErrorCode::ProperPartNotPr; }},
      {"verdictMessage", [](AnalysisReport& r) { r.verdictMessage += "x"; }},
      {"failure",
       [](AnalysisReport& r) {
         r.failure = core::FailureStage::ProperPartNotPr;
       }},
      {"order", [](AnalysisReport& r) { ++r.order; }},
      {"ports", [](AnalysisReport& r) { ++r.ports; }},
      {"removedImpulsive", [](AnalysisReport& r) { ++r.removedImpulsive; }},
      {"removedNondynamic", [](AnalysisReport& r) { ++r.removedNondynamic; }},
      {"impulsiveChains", [](AnalysisReport& r) { ++r.impulsiveChains; }},
      {"m1 entry", [](AnalysisReport& r) { r.m1(0, 0) += 1.0; }},
      {"m1 shape",
       [](AnalysisReport& r) { r.m1 = Matrix(r.m1.rows() + 1, 1); }},
      {"properOrder", [](AnalysisReport& r) { ++r.properOrder; }},
      {"reorder.swaps", [](AnalysisReport& r) { ++r.reorder.swaps; }},
      {"reorder.rejectedSwaps",
       [](AnalysisReport& r) { ++r.reorder.rejectedSwaps; }},
      {"reorder.maxResidual",
       [](AnalysisReport& r) { r.reorder.maxResidual += 1.0; }},
      {"reorder.eigenvalueDrift",
       [](AnalysisReport& r) { r.reorder.eigenvalueDrift += 1.0; }},
      {"reorder.standardizations",
       [](AnalysisReport& r) { ++r.reorder.standardizations; }},
      {"schur.multishift",
       [](AnalysisReport& r) { r.schur.multishift = !r.schur.multishift; }},
      {"schur.sweeps", [](AnalysisReport& r) { ++r.schur.sweeps; }},
      {"schur.aedWindows", [](AnalysisReport& r) { ++r.schur.aedWindows; }},
      {"schur.aedDeflations",
       [](AnalysisReport& r) { ++r.schur.aedDeflations; }},
      {"schur.shiftsApplied",
       [](AnalysisReport& r) { ++r.schur.shiftsApplied; }},
      {"schur.iterations", [](AnalysisReport& r) { ++r.schur.iterations; }},
      {"schur.structureRepairs",
       [](AnalysisReport& r) { ++r.schur.structureRepairs; }},
      {"rankPolicy.decisions",
       [](AnalysisReport& r) { ++r.rankPolicy.decisions; }},
      {"rankPolicy.minKeptMargin",
       [](AnalysisReport& r) { r.rankPolicy.minKeptMargin = -1.0; }},
      {"rankPolicy.maxDroppedMargin",
       [](AnalysisReport& r) { r.rankPolicy.maxDroppedMargin += 1.0; }},
      {"staircase.compressions",
       [](AnalysisReport& r) { ++r.staircase.compressions; }},
      {"staircase.svdFallbacks",
       [](AnalysisReport& r) { ++r.staircase.svdFallbacks; }},
      {"staircase.diagonalFastPaths",
       [](AnalysisReport& r) { ++r.staircase.diagonalFastPaths; }},
      {"staircase.qrCompressions",
       [](AnalysisReport& r) { ++r.staircase.qrCompressions; }},
      {"staircase.skewTridiagonalizations",
       [](AnalysisReport& r) { ++r.staircase.skewTridiagonalizations; }},
      {"staircase.reusedCompressions",
       [](AnalysisReport& r) { ++r.staircase.reusedCompressions; }},
      {"staircase.chainLength",
       [](AnalysisReport& r) { ++r.staircase.chainLength; }},
      {"staircase.truncatedSteps",
       [](AnalysisReport& r) { ++r.staircase.truncatedSteps; }},
      {"warnings",
       [](AnalysisReport& r) {
         r.warnings.push_back(Warning::ReorderSwapRejected);
       }},
      {"margin presence", [](AnalysisReport& r) { r.margin.reset(); }},
      {"margin.defined",
       [](AnalysisReport& r) { r.margin->defined = !r.margin->defined; }},
      {"margin.margin", [](AnalysisReport& r) { r.margin->margin += 1.0; }},
      {"margin.structuralDefect",
       [](AnalysisReport& r) {
         r.margin->structuralDefect = core::FailureStage::M1NotPsd;
       }},
      {"stage count", [](AnalysisReport& r) { r.stages.pop_back(); }},
      {"stage name", [](AnalysisReport& r) { r.stages[2].name += "x"; }},
      {"stage status code",
       [](AnalysisReport& r) {
         r.stages[2].status = Status::error(ErrorCode::Internal, "");
       }},
      {"stage status message",
       [](AnalysisReport& r) {
         r.stages[2].status = Status(r.stages[2].status.code(), "x");
       }},
  };
  ASSERT_TRUE(golden->decisionEquals(*golden));
  for (const auto& [field, mutate] : decisions) {
    AnalysisReport changed = *golden;
    mutate(changed);
    EXPECT_FALSE(golden->decisionEquals(changed)) << field;
    EXPECT_FALSE(changed.decisionEquals(*golden)) << field;
  }

  // Timings and memory peaks are execution record, not decisions.
  AnalysisReport timed = *golden;
  for (StageTrace& t : timed.stages) {
    t.seconds += 1.0;
    t.peakBytes += 4096;
  }
  timed.totalSeconds += 8.0;
  EXPECT_TRUE(golden->decisionEquals(timed));
  EXPECT_TRUE(timed.decisionEquals(*golden));
}

TEST(ApiAnalyzer, MarginIsTimedAsTheLastStage) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  AnalysisRequest req;
  req.system = circuits::makeRlcLadder(opt);
  PassivityAnalyzer analyzer;

  // Without marginTol the stage list is the seven Fig.-1 stages.
  Result<AnalysisReport> plain = analyzer.analyze(req);
  ASSERT_TRUE(plain.ok()) << plain.status().toString();
  ASSERT_EQ(plain->stages.size(), 7u);
  EXPECT_EQ(plain->stages.back().name, "pr-test");
  EXPECT_EQ(plain->toJson().find("\"name\":\"margin\""), std::string::npos);

  // With it, a timed "margin" stage ends the list, totalSeconds counts
  // it, and the JSON stages array ends with it too.
  req.marginTol = 1e-6;
  for (const ds::DescriptorSystem& sys :
       {req.system, circuits::makeNonPassiveIndefiniteM1()}) {
    req.system = sys;
    Result<AnalysisReport> r = analyzer.analyze(req);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    ASSERT_GE(r->stages.size(), 2u);
    const api::StageTrace& last = r->stages.back();
    EXPECT_EQ(last.name, "margin");
    EXPECT_TRUE(last.status.ok());
    EXPECT_GE(last.seconds, 0.0);
    EXPECT_NE(r->stages[r->stages.size() - 2].name, "margin");
    double sum = 0.0;
    for (const api::StageTrace& t : r->stages) sum += t.seconds;
    EXPECT_EQ(r->totalSeconds, sum);

    const std::string json = r->toJson();
    const std::size_t at = json.find("\"name\":\"margin\",\"status\":\"OK\"");
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_GT(at, json.find("\"stages\":["));
    EXPECT_EQ(json.find("\"name\":", at + 1), std::string::npos) << json;
  }
}

// ------------------------------------------------- verdict codes end-to-end

TEST(ApiAnalyzer, NonPassiveMutantsGetTheExpectedVerdicts) {
  PassivityAnalyzer analyzer;

  Result<AnalysisReport> m1 =
      analyzer.analyze(circuits::makeNonPassiveIndefiniteM1());
  ASSERT_TRUE(m1.ok()) << m1.status().toString();
  EXPECT_FALSE(m1->passive);
  EXPECT_EQ(m1->verdict, ErrorCode::M1NotPsd);

  Result<AnalysisReport> pr =
      analyzer.analyze(circuits::makeNonPassiveNegativeFeedthrough(4));
  ASSERT_TRUE(pr.ok()) << pr.status().toString();
  EXPECT_FALSE(pr->passive);
  EXPECT_EQ(pr->verdict, ErrorCode::ProperPartNotPr);
}

// ----------------------------------------------------------------- pipeline

TEST(ApiPipeline, TracesCoverAllStagesOnAPassiveRun) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = true;
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);

  PipelineState state;
  state.input = &g;
  Status status = runPipeline(state);
  EXPECT_TRUE(status.ok()) << status.toString();
  const AnalysisReport& report = state.report;
  EXPECT_TRUE(report.passive);
  EXPECT_EQ(report.verdict, ErrorCode::Ok);
  EXPECT_EQ(report.order, g.order());
  EXPECT_EQ(report.properOrder, state.properPart.lambda.rows());
  ASSERT_EQ(report.stages.size(), 7u);
  const char* expected[] = {"prerequisites",      "build-phi",
                            "impulse-deflation",  "nondynamic-removal",
                            "m1-extraction",      "proper-part",
                            "pr-test"};
  double total = 0.0;
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    EXPECT_EQ(report.stages[i].name, expected[i]);
    EXPECT_TRUE(report.stages[i].status.ok());
    EXPECT_GE(report.stages[i].seconds, 0.0);
    total += report.stages[i].seconds;
  }
  EXPECT_EQ(report.totalSeconds, total);
}

TEST(ApiPipeline, AnalyzerReportIsThePipelineReport) {
  // The analyzer adds only the request id (and the margin, when asked
  // for) to the report the pipeline wrote.
  circuits::LadderOptions opt;
  opt.sections = 4;
  opt.capAtPort = false;  // impulsive: M1 = l at the port
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);

  PipelineState state;
  state.input = &g;
  ASSERT_TRUE(runPipeline(state).ok());
  AnalysisRequest req;
  req.id = "ladder";
  req.system = g;
  Result<AnalysisReport> r = PassivityAnalyzer().analyze(req);
  ASSERT_TRUE(r.ok()) << r.status().toString();
  state.report.id = "ladder";
  EXPECT_TRUE(r->decisionEquals(state.report));
  EXPECT_GT(r->removedImpulsive, 0u);
  EXPECT_EQ(r->m1.rows(), 1u);
}

TEST(ApiPipeline, CompressesEAndBuildsTheRecordOncePerAnalysis) {
  // report.staircase and report.rankPolicy equal the stage chain run by
  // hand with ONE compression of the balanced E and ONE impulsive-structure
  // record: the screens read the record, impulse-deflation reuses the
  // compression, m1-extraction reuses the record. A second compression or
  // record would add its compressions, decisions and chain steps.
  const ds::DescriptorSystem g = circuits::makeBenchmarkModel(40, true);
  const AnalysisReport report = testing::pipelineReport(g);
  ASSERT_TRUE(report.passive);

  const core::PassivityOptions o;
  const ds::DescriptorSystem bal = ds::balanceDescriptor(g).sys;
  linalg::RankReport rank;
  linalg::StaircaseReport stair;
  const linalg::Compression ce = linalg::compress(
      bal.e, linalg::CompressionOptions::allBases(o.rankTol), &rank, &stair);
  EXPECT_EQ(stair.compressions, 1u);
  const ds::ImpulsiveStructure record =
      ds::impulsiveStructure(bal, o.rankTol, &ce, &rank, &stair);
  ds::finiteSpectrum(bal, record, ce, o.rankTol, &rank, &stair);
  const core::ImpulseDeflationResult d = core::deflateImpulseModes(
      core::buildPhi(bal), o.rankTol, &rank, &stair, &ce);
  EXPECT_FALSE(d.hasHalfECompression);
  const core::NondynamicRemovalResult nd =
      core::removeNondynamicModes(d.reduced, o.rankTol, &rank, &stair);
  core::extractProperPart(nd.shh, o.imagTol, o.rankTol, &rank);
  EXPECT_EQ(report.staircase, stair);
  EXPECT_EQ(report.rankPolicy, rank);
}

TEST(ApiPipeline, PassingRunReleasesIntermediateSlots) {
  // Impulsive, so impulse deflation removes modes and every slot is used.
  ds::DescriptorSystem g = circuits::makeBenchmarkModel(40, true);
  PipelineState state;
  state.input = &g;
  Status status = runPipeline(state);
  ASSERT_TRUE(status.ok()) << status.toString();
  ASSERT_TRUE(state.report.passive);
  ASSERT_GT(state.report.removedImpulsive, 0u);

  // Released by their last readers.
  EXPECT_TRUE(state.phi.a.empty());
  EXPECT_TRUE(state.phi.e.empty());
  EXPECT_TRUE(state.deflation.reduced.a.empty());
  EXPECT_TRUE(state.deflation.reduced.e.empty());
  EXPECT_TRUE(state.deflation.impulseUnobservable.empty());
  EXPECT_FALSE(state.deflation.hasHalfECompression);
  EXPECT_TRUE(state.eCompression.range.empty());
  EXPECT_TRUE(state.eCompression.nullspace.empty());
  EXPECT_TRUE(state.structure.heads.empty());
  EXPECT_TRUE(state.structure.infiniteBasis.empty());
  EXPECT_TRUE(state.nondynamic.shh.a.empty());
  EXPECT_TRUE(state.nondynamic.shh.e.empty());

  // Kept for callers.
  EXPECT_EQ(state.balanced.sys.order(), g.order());
  EXPECT_TRUE(state.properPart.ok);
  EXPECT_FALSE(state.properPart.lambda.empty());
  EXPECT_FALSE(state.properPart.b1.empty());
  EXPECT_FALSE(state.properPart.c1.empty());
}

TEST(ApiPipeline, NullInputIsAnInvalidArgumentNotACrash) {
  PipelineState state;  // input left null
  Status status = runPipeline(state);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
}

TEST(ApiPipeline, VerdictStopsThePipelineEarly) {
  ds::DescriptorSystem g = circuits::makeNonPassiveIndefiniteM1();
  PipelineState state;
  state.input = &g;
  Status status = runPipeline(state);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(isVerdictCode(status.code()));
  EXPECT_EQ(status.code(), ErrorCode::M1NotPsd);
  EXPECT_FALSE(state.report.passive);
  EXPECT_EQ(state.report.verdict, ErrorCode::M1NotPsd);
  EXPECT_EQ(state.report.failure, core::FailureStage::M1NotPsd);
  EXPECT_EQ(state.report.verdictMessage, status.message());
  // m1-extraction is stage 5 of 7; the last two stages never ran.
  EXPECT_EQ(state.report.stages.size(), 5u);
  EXPECT_EQ(state.report.stages.back().name, "m1-extraction");
}

// --------------------------------------------------------------------- JSON

TEST(ApiJson, WriterEscapesAndNests) {
  json::Writer w;
  w.beginObject();
  w.key("s").value("a\"b\\c\nd");
  w.key("n").value(std::size_t{3});
  w.key("b").value(true);
  w.key("arr").beginArray().value(1.5).value(false).endArray();
  w.endObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":3,\"b\":true,"
            "\"arr\":[1.5,false]}");
}

TEST(ApiJson, ReportSerializesTheDecisionPath) {
  circuits::LadderOptions opt;
  opt.sections = 3;
  opt.capAtPort = false;
  PassivityAnalyzer analyzer;
  Result<AnalysisReport> r = analyzer.analyze(circuits::makeRlcLadder(opt));
  ASSERT_TRUE(r.ok()) << r.status().toString();
  const std::string doc = r->toJson();
  EXPECT_NE(doc.find("\"passive\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"verdict\":\"OK\""), std::string::npos);
  EXPECT_NE(doc.find("\"stages\":["), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"pr-test\""), std::string::npos);
  EXPECT_NE(doc.find("\"m1\":[["), std::string::npos);
}

TEST(ApiJson, ReportCarriesReorderHealth) {
  // The reorder health of the Eq.-(22) Schur split is part of the decision
  // path: swap/reject counts and residual bounds must appear in the JSON,
  // and a clean run carries no warnings.
  PassivityAnalyzer analyzer;
  Result<AnalysisReport> r =
      analyzer.analyze(circuits::makeBenchmarkModel(25, true));
  ASSERT_TRUE(r.ok()) << r.status().toString();
  EXPECT_TRUE(r->passive);
  EXPECT_GT(r->reorder.swaps, 0u);
  EXPECT_EQ(r->reorder.rejectedSwaps, 0u);
  EXPECT_TRUE(r->warnings.empty());
  const std::string doc = r->toJson();
  EXPECT_NE(doc.find("\"reorder\":{\"swaps\":"), std::string::npos);
  EXPECT_NE(doc.find("\"rejectedSwaps\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"maxResidual\":"), std::string::npos);
  EXPECT_NE(doc.find("\"eigenvalueDrift\":"), std::string::npos);
  EXPECT_NE(doc.find("\"warnings\":[]"), std::string::npos);
  EXPECT_STREQ(api::warningName(Warning::ReorderSwapRejected),
               "REORDER_SWAP_REJECTED");
}

// -------------------------------------------------------------------- batch

TEST(ApiBatch, MixedBatchMatchesSequentialSingleShot) {
  // A mixed set: passive ladders (impulse-free and impulsive), a random
  // RLC network, and non-passive mutants of three different kinds, so the
  // batch exercises several verdict paths concurrently.
  std::vector<AnalysisRequest> batch;
  for (std::size_t k = 0; k < 4; ++k) {
    circuits::LadderOptions opt;
    opt.sections = 3 + k;
    opt.capAtPort = (k % 2 == 0);
    AnalysisRequest req;
    req.id = "ladder-" + std::to_string(k);
    req.system = circuits::makeRlcLadder(opt);
    batch.push_back(std::move(req));
  }
  {
    AnalysisRequest req;
    req.id = "random-net";
    req.system = circuits::makeRandomRlcNetwork(6, /*seed=*/17);
    batch.push_back(std::move(req));
  }
  {
    AnalysisRequest req;
    req.id = "indefinite-m1";
    req.system = circuits::makeNonPassiveIndefiniteM1();
    batch.push_back(std::move(req));
  }
  {
    AnalysisRequest req;
    req.id = "neg-feedthrough";
    req.system = circuits::makeNonPassiveNegativeFeedthrough(4);
    batch.push_back(std::move(req));
  }
  {
    AnalysisRequest req;
    req.id = "grade3";
    req.system = circuits::makeNonPassiveHigherOrderImpulse();
    batch.push_back(std::move(req));
  }

  AnalyzerOptions opts;
  opts.threads = 4;  // force actual concurrency even on small machines
  PassivityAnalyzer analyzer(opts);

  std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  std::size_t passiveCount = 0, nonPassiveCount = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << batch[i].id << ": " << results[i].status().toString();
    EXPECT_EQ(results[i]->id, batch[i].id);
    (results[i]->passive ? passiveCount : nonPassiveCount) += 1;
    // Per-item reports must match a sequential single-shot run exactly
    // (up to wall-clock timings).
    Result<AnalysisReport> single = analyzer.analyze(batch[i]);
    ASSERT_TRUE(single.ok()) << batch[i].id;
    EXPECT_TRUE(results[i]->decisionEquals(*single)) << batch[i].id;
  }
  EXPECT_EQ(passiveCount, 5u);
  EXPECT_EQ(nonPassiveCount, 3u);
}

TEST(ApiBatch, EmptyBatchYieldsNoResults) {
  PassivityAnalyzer analyzer;
  EXPECT_TRUE(analyzer.runBatch({}).empty());
}

TEST(ApiBatch, PerRequestOptionOverridesAreHonored) {
  // skipPrerequisites on an unstable system: the default path reports
  // UnstableFiniteModes, the override path runs past the screen.
  ds::DescriptorSystem g = circuits::makeNonPassiveNegativeResistor(3);
  PassivityAnalyzer analyzer;

  AnalysisRequest plain;
  plain.system = g;
  Result<AnalysisReport> r1 = analyzer.analyze(plain);
  ASSERT_TRUE(r1.ok()) << r1.status().toString();
  EXPECT_FALSE(r1->passive);

  AnalysisRequest skipped = plain;
  core::PassivityOptions po;
  po.skipPrerequisites = true;
  skipped.options = po;
  Result<AnalysisReport> r2 = analyzer.analyze(skipped);
  ASSERT_TRUE(r2.ok()) << r2.status().toString();
  EXPECT_FALSE(r2->passive);
  EXPECT_NE(r2->verdict, ErrorCode::UnstableFiniteModes);
}

}  // namespace
}  // namespace shhpass::api
