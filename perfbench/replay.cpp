#include "replay.hpp"

#include <complex>

#include "control/lyapunov.hpp"
#include "control/pr_test.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "core/proper_part.hpp"
#include "ds/balance.hpp"
#include "linalg/blas.hpp"
#include "linalg/schur.hpp"
#include "linalg/schur_reorder.hpp"
#include "linalg/svd.hpp"
#include "shh/isotropic_arnoldi.hpp"
#include "shh/stable_subspace.hpp"
#include "shh/symplectic.hpp"

namespace perfbench {

namespace api = shhpass::api;
namespace core = shhpass::core;
namespace ds = shhpass::ds;
namespace linalg = shhpass::linalg;
namespace shh = shhpass::shh;

namespace {

void replaySubcalls(const shh::ShhRealization& s3,
                    const core::ProperPartResult& pp, double imagTol,
                    SpanLog& spans, long item, ReplayOutcome& out) {
  if (s3.order() == 0) return;
  shh::SkewHamiltonianTriangularization tri;
  {
    ScopedSpan s(&spans, "shh.arnoldi", item);
    tri = shh::skewHamiltonianBlockTriangularize(s3.e);
  }
  const linalg::Matrix ebar = tri.ebar();
  {
    ScopedSpan s(&spans, "linalg.ebar_svd", item);
    (void)linalg::singularValues(ebar);
  }
  shh::HamiltonianDecoupling dec;
  {
    ScopedSpan s(&spans, "shh.decouple", item);
    dec = shh::decoupleHamiltonian(pp.a4, imagTol);
  }
  linalg::RealSchurResult rs;
  {
    ScopedSpan s(&spans, "linalg.schur", item);
    rs = linalg::realSchur(pp.a4);
  }
  linalg::ReorderReport reorder;
  std::size_t stable = 0;
  {
    ScopedSpan s(&spans, "linalg.reorder", item);
    stable = linalg::reorderSchur(
        rs.t, rs.q, [](std::complex<double> l) { return l.real() < 0.0; },
        &reorder);
  }
  out.subcallsRan = true;
  out.subcallSwaps = reorder.swaps;
  const std::size_t np = pp.a4.rows() / 2;
  if (!dec.ok || np == 0 || stable != np) return;
  // The decoupling's right-hand side, untimed: Ahat is the upper-right
  // block of Z1^T H Z1 with Z1 the symplectic completion of the stable
  // Schur basis.
  const linalg::Matrix z1 = shh::lagrangianCompletion(
      rs.q.block(0, 0, np, np), rs.q.block(np, 0, np, np));
  const linalg::Matrix t1 =
      linalg::multiply(linalg::atb(z1, pp.a4), false, z1, false);
  const linalg::Matrix ahat = t1.block(0, np, np, np);
  ScopedSpan s(&spans, "control.lyapunov", item);
  (void)shhpass::control::solveLyapunov(dec.lambda, ahat);
}

}  // namespace

ReplayOutcome replayAnalysis(const ds::DescriptorSystem& sys,
                             const core::PassivityOptions& opts,
                             SpanLog& spans, long item, bool subcalls) {
  ReplayOutcome out;
  auto stop = [&out](core::FailureStage stage) {
    out.completed = true;
    out.verdict = api::errorCodeFromFailureStage(stage);
    return out;
  };
  try {
    ds::BalancedSystem balanced;
    {
      ScopedSpan s(&spans, "ds.balance", item);
      sys.validate();
      if (!sys.isSquareSystem()) return stop(core::FailureStage::NotSquare);
      balanced = opts.balance ? ds::balanceDescriptor(sys)
                              : ds::BalancedSystem{sys, 1.0};
    }
    if (!opts.skipPrerequisites) {
      ScopedSpan s(&spans, "ds.screens", item);
      if (!ds::isRegular(balanced.sys))
        return stop(core::FailureStage::SingularPencil);
      if (!ds::hasStableFiniteModes(balanced.sys))
        return stop(core::FailureStage::UnstableFiniteModes);
    }
    shh::ShhRealization phi;
    {
      ScopedSpan s(&spans, "core.build_phi", item);
      phi = core::buildPhi(balanced.sys);
    }
    core::ImpulseDeflationResult deflation;
    {
      ScopedSpan s(&spans, "core.impulse_deflation", item);
      deflation = core::deflateImpulseModes(phi, opts.rankTol);
    }
    out.removedImpulsive = deflation.removed;
    core::NondynamicRemovalResult nondynamic;
    {
      ScopedSpan s(&spans, "core.nondynamic", item);
      nondynamic = core::removeNondynamicModes(deflation.reduced, opts.rankTol);
    }
    out.removedNondynamic = nondynamic.removed;
    if (!nondynamic.impulseFree)
      return stop(core::FailureStage::ResidualImpulses);
    {
      ScopedSpan s(&spans, "core.m1", item);
      // The deflation stage's compression of the balanced E serves this
      // stage too, exactly as the pipeline hands it over.
      const linalg::Compression* eComp =
          deflation.hasHalfECompression ? &deflation.halfECompression
                                        : nullptr;
      linalg::RankReport rank;
      linalg::StaircaseReport stair;
      if (deflation.removed > 0 &&
          core::hasHigherOrderImpulses(balanced.sys, opts.rankTol, &rank,
                                       &stair, eComp))
        return stop(core::FailureStage::HigherOrderImpulse);
      const core::M1Extraction m1 = core::extractM1(
          balanced.sys, opts.rankTol, core::DeflationPath::Auto, eComp);
      if (!m1.symmetric || !m1.psd) return stop(core::FailureStage::M1NotPsd);
    }
    core::ProperPartResult pp;
    {
      ScopedSpan s(&spans, "core.proper_part", item);
      pp = core::extractProperPart(nondynamic.shh, opts.imagTol, opts.rankTol);
    }
    out.properOrder = pp.lambda.rows();
    out.reorderSwaps = pp.reorder.swaps;
    if (!pp.ok) return stop(core::FailureStage::LosslessAxisModes);
    shhpass::control::PrTestResult pr;
    {
      ScopedSpan s(&spans, "control.pr_test", item);
      pr = shhpass::control::testPositiveRealProper(pp.lambda, pp.b1, pp.c1,
                                                    pp.dHalf, opts.imagTol);
    }
    if (subcalls)
      replaySubcalls(nondynamic.shh, pp, opts.imagTol, spans, item, out);
    if (!pr.positiveReal) return stop(core::FailureStage::ProperPartNotPr);
    return stop(core::FailureStage::None);
  } catch (...) {
    const api::Status status = api::statusFromCurrentException();
    out.completed = false;
    out.verdict = status.code();
    out.error = status.toString();
    return out;
  }
}

bool sameDecision(const ReplayOutcome& r, const api::AnalysisReport& report) {
  return r.completed && r.verdict == report.verdict &&
         r.properOrder == report.properOrder &&
         r.removedImpulsive == report.removedImpulsive &&
         r.removedNondynamic == report.removedNondynamic &&
         (!r.subcallsRan || r.subcallSwaps == r.reorderSwaps);
}

}  // namespace perfbench
