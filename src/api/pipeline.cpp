#include "api/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "api/json.hpp"
#include "control/pr_test.hpp"
#include "core/markov.hpp"
#include "core/phi_builder.hpp"
#include "ds/impulse_tests.hpp"
#include "obs/clock.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"

namespace shhpass::api {
namespace {

/// Shorthand for a not-passive exit at `stage`.
Status verdict(core::FailureStage stage) {
  return Status::error(errorCodeFromFailureStage(stage),
                       core::failureStageName(stage));
}

// Stage 0 of Fig. 1: tolerance and shape validation, squareness, pencil
// balancing, the one compression of the balanced E and the
// impulsive-structure record built on it, and (unless skipped) the
// regularity and finite-stability screens, both read off the record.
Status prerequisites(PipelineState& s) {
  // An infinite or NaN cutoff silently decides every rank and every
  // imaginary-axis test one way; a negative rankTol is the shared-policy
  // sentinel (linalg/svd.hpp), a negative imagTol has no meaning.
  const core::PassivityOptions& o = s.options;
  if (!(std::isfinite(o.imagTol) && o.imagTol >= 0.0) ||
      !std::isfinite(o.rankTol))
    return Status::error(ErrorCode::InvalidArgument,
                         "PassivityOptions: imagTol must be finite and >= 0, "
                         "rankTol finite");
  s.input->validate();
  if (!s.input->isSquareSystem())
    return verdict(core::FailureStage::NotSquare);
  // Balance the pencil: frequency scaling + equilibration, both exact
  // r.s.e. operations under which passivity is invariant.
  s.balanced = s.options.balance ? ds::balanceDescriptor(*s.input)
                                 : ds::BalancedSystem{*s.input, 1.0};
  const ds::DescriptorSystem& g = s.balanced.sys;
  s.eCompression = linalg::compress(
      g.e, linalg::CompressionOptions::allBases(o.rankTol),
      &s.report.rankPolicy, &s.report.staircase);
  s.structure = ds::impulsiveStructure(g, o.rankTol, &s.eCompression,
                                       &s.report.rankPolicy,
                                       &s.report.staircase);
  if (!s.options.skipPrerequisites) {
    const ds::FiniteSpectrum spectrum =
        ds::finiteSpectrum(g, s.structure, s.eCompression, o.rankTol,
                           &s.report.rankPolicy, &s.report.staircase);
    if (!spectrum.regular) return verdict(core::FailureStage::SingularPencil);
    if (!spectrum.stable())
      return verdict(core::FailureStage::UnstableFiniteModes);
  }
  return Status::okStatus();
}

// Stage 1: realize Phi = G + G~ as an SHH pencil (Eq. 10).
Status buildPhi(PipelineState& s) {
  s.phi = core::buildPhi(s.balanced.sys);
  return Status::okStatus();
}

// Stage 2: deflate impulse-unobservable/-uncontrollable modes (Eqs. 11-17).
Status impulseDeflation(PipelineState& s) {
  s.deflation = core::deflateImpulseModes(
      s.phi, s.options.rankTol, &s.report.rankPolicy, &s.report.staircase,
      &s.eCompression);
  // Last reader of Phi and of E's compression; no stage reads the
  // deflation's basis.
  s.phi = shh::ShhRealization{};
  s.eCompression = linalg::Compression{};
  s.deflation.impulseUnobservable = linalg::Matrix();
  s.report.removedImpulsive = s.deflation.removed;
  return Status::okStatus();
}

// Stage 3: impulse-freeness certificate + nondynamic removal (Eqs. 18-20).
Status nondynamicRemoval(PipelineState& s) {
  s.nondynamic = core::removeNondynamicModes(
      s.deflation.reduced, s.options.rankTol, &s.report.rankPolicy,
      &s.report.staircase);
  s.deflation.reduced = shh::SkewSymRealization{};  // last reader
  s.report.removedNondynamic = s.nondynamic.removed;
  if (!s.nondynamic.impulseFree)
    return verdict(core::FailureStage::ResidualImpulses);
  return Status::okStatus();
}

// Stage 4: impulsive-part admissibility of G itself — grade >= 3 screen
// plus M1 extraction and the M1 >= 0 check (Eqs. 24-25), both readings of
// the prerequisites' impulsive-structure record.
Status m1Extraction(PipelineState& s) {
  // Last reader of the record.
  const ds::ImpulsiveStructure structure = std::exchange(s.structure, {});
  // Skew-symmetric Mk cancel inside Phi, so the grade >= 3 screen only
  // applies when the stage-2 deflation was non-trivial.
  if (s.deflation.removed > 0 && structure.index() >= 3)
    return verdict(core::FailureStage::HigherOrderImpulse);
  const core::M1Extraction m1 = core::extractM1(s.balanced.sys, structure);
  // The balanced system is G_b(s) = G(tau * s) with residue tau * M1 at
  // infinity; undo the frequency scaling for reporting.
  s.report.m1 = (1.0 / s.balanced.freqScale) * m1.m1;
  s.report.impulsiveChains = m1.chainCount;
  if (!m1.symmetric || !m1.psd)
    return verdict(core::FailureStage::M1NotPsd);
  return Status::okStatus();
}

// Stage 5: normalize E3 and split off the stable proper part (Eqs. 21-23).
Status properPart(PipelineState& s) {
  core::ProperPartResult& pp = s.properPart;
  pp = core::extractProperPart(s.nondynamic.shh, s.options.imagTol,
                               s.options.rankTol, &s.report.rankPolicy);
  s.nondynamic.shh = shh::ShhRealization{};  // last reader
  s.report.reorder = pp.reorder;
  s.report.schur = pp.schur;
  if (!pp.ok) return verdict(core::FailureStage::LosslessAxisModes);
  return Status::okStatus();
}

// Stage 6: standard positive-realness test on the extracted proper part.
Status positiveRealness(PipelineState& s) {
  const core::ProperPartResult& pp = s.properPart;
  const control::PrTestResult pr = control::testPositiveRealProper(
      pp.lambda, pp.b1, pp.c1, pp.dHalf, s.options.imagTol);
  if (!pr.positiveReal) return verdict(core::FailureStage::ProperPartNotPr);
  return Status::okStatus();
}

/// The Fig.-1 flowchart, one row per box, in execution order.
struct StageEntry {
  const char* name;
  Status (*run)(PipelineState&);
};
constexpr StageEntry kStages[] = {
    {"prerequisites", prerequisites},
    {"build-phi", buildPhi},
    {"impulse-deflation", impulseDeflation},
    {"nondynamic-removal", nondynamicRemoval},
    {"m1-extraction", m1Extraction},
    {"proper-part", properPart},
    {"pr-test", positiveRealness},
};

}  // namespace

StageTrace runTimedStage(const char* name,
                         const std::function<Status()>& body) {
  StageTrace trace;
  trace.name = name;
  obs::MemScope mem;
  const std::uint64_t t0 = obs::monotonicNowNs();
  try {
    trace.status = body();
  } catch (...) {
    trace.status = statusFromCurrentException();
  }
  const std::uint64_t t1 = obs::monotonicNowNs();
  trace.seconds = obs::nsToSeconds(t0, t1);
  trace.peakBytes = mem.peakBytes();
  obs::emitSpan(trace.name, "stage", t0, t1, obs::currentThreadTid());
  return trace;
}

Status runPipeline(PipelineState& state) {
  state.properPart = core::ProperPartResult{};
  state.report = AnalysisReport{};
  if (state.input == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "PipelineState::input is null");
  AnalysisReport& report = state.report;
  Status status = Status::okStatus();
  for (const StageEntry& stage : kStages) {
    report.stages.push_back(
        runTimedStage(stage.name, [&] { return stage.run(state); }));
    const StageTrace& trace = report.stages.back();
    report.totalSeconds += trace.seconds;
    if (!trace.status.ok()) {
      status = trace.status;
      break;
    }
  }
  if (!status.ok() && !isVerdictCode(status.code())) return status;

  report.passive = status.ok();
  report.verdict = status.code();
  report.verdictMessage =
      status.ok() ? core::failureStageName(core::FailureStage::None)
                  : status.message();
  report.failure = status.ok() ? core::FailureStage::None
                               : *failureStageFromErrorCode(status.code());
  report.order = state.input->order();
  report.ports = state.input->numInputs();
  report.properOrder = state.properPart.lambda.rows();
  if (report.reorder.rejectedSwaps > 0)
    report.warnings.push_back(Warning::ReorderSwapRejected);
  return status;
}

bool AnalysisReport::decisionEquals(const AnalysisReport& other) const {
  if (id != other.id || passive != other.passive ||
      verdict != other.verdict || verdictMessage != other.verdictMessage ||
      failure != other.failure || order != other.order ||
      ports != other.ports || removedImpulsive != other.removedImpulsive ||
      removedNondynamic != other.removedNondynamic ||
      impulsiveChains != other.impulsiveChains ||
      properOrder != other.properOrder || reorder != other.reorder ||
      schur != other.schur || rankPolicy != other.rankPolicy ||
      staircase != other.staircase || warnings != other.warnings ||
      margin != other.margin)
    return false;
  if (m1.rows() != other.m1.rows() || m1.cols() != other.m1.cols())
    return false;
  for (std::size_t i = 0; i < m1.rows(); ++i)
    for (std::size_t j = 0; j < m1.cols(); ++j)
      if (m1(i, j) != other.m1(i, j)) return false;
  if (stages.size() != other.stages.size()) return false;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    if (stages[k].name != other.stages[k].name ||
        stages[k].status.code() != other.stages[k].status.code() ||
        stages[k].status.message() != other.stages[k].status.message())
      return false;
  }
  return true;
}

void writeHealthJson(json::Writer& w, const AnalysisReport& r) {
  w.key("reorder").beginObject();
  w.key("swaps").value(r.reorder.swaps);
  w.key("rejectedSwaps").value(r.reorder.rejectedSwaps);
  w.key("maxResidual").value(r.reorder.maxResidual);
  w.key("eigenvalueDrift").value(r.reorder.eigenvalueDrift);
  w.key("standardizations").value(r.reorder.standardizations);
  w.endObject();
  w.key("schur").beginObject();
  w.key("multishift").value(r.schur.multishift);
  w.key("sweeps").value(r.schur.sweeps);
  w.key("aedWindows").value(r.schur.aedWindows);
  w.key("aedDeflations").value(r.schur.aedDeflations);
  w.key("shiftsApplied").value(r.schur.shiftsApplied);
  w.key("iterations").value(r.schur.iterations);
  w.key("structureRepairs").value(r.schur.structureRepairs);
  w.endObject();
  w.key("rankPolicy").beginObject();
  w.key("decisions").value(r.rankPolicy.decisions);
  w.key("minKeptMargin").value(r.rankPolicy.minKeptMargin);
  w.key("maxDroppedMargin").value(r.rankPolicy.maxDroppedMargin);
  w.endObject();
  const linalg::StaircaseReport& st = r.staircase;
  w.key("staircase").beginObject();
  w.key("compressions").value(st.compressions);
  w.key("svdFallbacks").value(st.svdFallbacks);
  w.key("diagonalFastPaths").value(st.diagonalFastPaths);
  w.key("qrCompressions").value(st.qrCompressions);
  w.key("skewTridiagonalizations").value(st.skewTridiagonalizations);
  w.key("reusedCompressions").value(st.reusedCompressions);
  w.key("chainLength").value(st.chainLength);
  w.key("truncatedSteps").value(st.truncatedSteps);
  w.endObject();
}

std::string AnalysisReport::toJson() const {
  json::Writer w;
  w.beginObject();
  w.key("id").value(id);
  w.key("passive").value(passive);
  w.key("verdict").value(errorCodeName(verdict));
  w.key("verdictMessage").value(verdictMessage);
  w.key("order").value(order);
  w.key("ports").value(ports);
  w.key("diagnostics").beginObject();
  w.key("removedImpulsive").value(removedImpulsive);
  w.key("removedNondynamic").value(removedNondynamic);
  w.key("impulsiveChains").value(impulsiveChains);
  w.key("properOrder").value(properOrder);
  {
    // Peak of the per-stage memory high-water marks (0 when the obs
    // memory accountant was off for the run).
    std::size_t peak = 0;
    for (const StageTrace& t : stages) peak = std::max(peak, t.peakBytes);
    w.key("peakBytes").value(peak);
  }
  w.key("m1").value(m1);
  writeHealthJson(w, *this);
  if (margin) {
    w.key("margin").beginObject();
    w.key("defined").value(margin->defined);
    if (margin->defined)
      w.key("value").value(margin->margin);
    else
      w.key("structuralDefect")
          .value(errorCodeName(
              errorCodeFromFailureStage(margin->structuralDefect)));
    w.endObject();
  }
  w.endObject();
  w.key("warnings").beginArray();
  for (Warning warn : warnings) w.value(warningName(warn));
  w.endArray();
  w.key("stages").beginArray();
  for (const StageTrace& t : stages) {
    w.beginObject();
    w.key("name").value(t.name);
    w.key("status").value(errorCodeName(t.status.code()));
    if (!t.status.ok()) w.key("message").value(t.status.message());
    w.key("seconds").value(t.seconds);
    if (t.peakBytes > 0) w.key("peakBytes").value(t.peakBytes);
    w.endObject();
  }
  w.endArray();
  w.key("totalSeconds").value(totalSeconds);
  w.endObject();
  return w.str();
}

}  // namespace shhpass::api
