#include "core/margin.hpp"

#include <cmath>
#include <stdexcept>

#include "api/pipeline.hpp"
#include "control/pr_test.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

// Is Hp + delta*I positive real? (Hamiltonian certificate through the
// existing proper-part test; stability of lambda is known.)
bool shiftedPr(const ProperPartResult& pp, double delta, double imagTol) {
  Matrix d = pp.dHalf;
  for (std::size_t i = 0; i < d.rows(); ++i) d(i, i) += 0.5 * delta;
  control::PrTestResult pr = control::testPositiveRealProper(
      pp.lambda, pp.b1, pp.c1, d, imagTol);
  return pr.positiveReal;
}

// `while (hi - lo > tol)` ends only for a finite, positive tol.
void requireBisectionTol(double tol) {
  if (!(std::isfinite(tol) && tol > 0.0))
    throw std::invalid_argument(
        "passivity margin: tol must be finite and > 0");
}

}  // namespace

PassivityMargin marginOfRun(FailureStage failure,
                            const ProperPartResult& pp, double tol,
                            double imagTol) {
  requireBisectionTol(tol);
  PassivityMargin out;
  // Structural (impulsive) defects are not repairable by D-shifts; only a
  // run that reached the positive-realness test has a proper part to shift.
  if (failure != FailureStage::None &&
      failure != FailureStage::ProperPartNotPr) {
    out.structuralDefect = failure;
    return out;
  }

  // Bisect delta such that Hp + (delta/2) I turns positive real exactly at
  // delta = -2*margin. Bracket first.
  const double scale =
      1.0 + pp.dHalf.maxAbs() + pp.c1.maxAbs() * pp.b1.maxAbs();
  double lo = 0.0, hi = 0.0;  // invariant: PR(hi) true, PR(lo) false
  // PR(0) is the run's own verdict: its pr-test stage ran the same test on
  // this very (lambda, b1, c1, dHalf) with the same imagTol.
  if (failure == FailureStage::None) {
    hi = 0.0;
    lo = -scale;
    while (shiftedPr(pp, lo, imagTol)) {
      hi = lo;
      lo *= 4.0;
      if (lo < -1e12 * scale) {
        // Margin effectively unbounded (e.g. zero transfer function).
        out.defined = true;
        out.margin = -0.5 * lo;
        return out;
      }
    }
  } else {
    lo = 0.0;
    hi = scale;
    while (!shiftedPr(pp, hi, imagTol)) {
      lo = hi;
      hi *= 4.0;
      if (hi > 1e12 * scale) {
        out.structuralDefect = FailureStage::ProperPartNotPr;
        return out;  // cannot repair (should not happen for stable Hp)
      }
    }
  }
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (shiftedPr(pp, mid, imagTol))
      hi = mid;
    else
      lo = mid;
  }
  out.defined = true;
  out.margin = -0.5 * hi;  // delta* = -2 * margin
  return out;
}

PassivityMargin passivityMargin(const ds::DescriptorSystem& g, double tol,
                                double rankTol) {
  requireBisectionTol(tol);  // before, not after, a full pipeline run
  api::PipelineState state;
  state.input = &g;
  state.options.rankTol = rankTol;
  api::throwIfOperationalError(api::runPipeline(state));
  return marginOfRun(state.report.failure, state.properPart, tol,
                     state.options.imagTol);
}

ds::DescriptorSystem enforcePassivity(const ds::DescriptorSystem& g,
                                      double headroom, double rankTol) {
  if (!(std::isfinite(headroom) && headroom >= 0.0))
    throw std::invalid_argument(
        "enforcePassivity: headroom must be finite and >= 0");
  PassivityMargin pm = passivityMargin(g, 1e-6, rankTol);
  if (!pm.defined)
    throw std::invalid_argument(
        "enforcePassivity: structural defect (" +
        failureStageName(pm.structuralDefect) +
        ") cannot be repaired by a feedthrough shift");
  if (pm.margin >= 0.0) return g;
  ds::DescriptorSystem fixed = g;
  const double shift = -pm.margin + headroom;
  for (std::size_t i = 0; i < fixed.d.rows(); ++i) fixed.d(i, i) += shift;
  return fixed;
}

}  // namespace shhpass::core
