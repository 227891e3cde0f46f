// Parametric sweep workloads: vary selected R/L/C element values across
// decades, re-stamp the MNA descriptor of each point from a copy of the
// netlist with that point's values (stampMna costs microseconds against
// milliseconds per analysis), and run the resulting AnalysisRequest batch
// through PassivityAnalyzer::runBatch to produce a passivity-margin map.
// Margins are part of each analysis (AnalysisRequest::marginTol): every
// batch worker bisects on the proper part its own analysis extracted, so
// there is no pass after the batch.
//
// runSweep builds one AnalysisRequest per sweep point (ids
// "sweep-000001", ... in point order); results land in request order and
// must decisionEquals a sequential per-point analyze() loop for every
// worker count (decisionEquals covers the margin too).
// verifySweepSequential runs that oracle loop and counts mismatches —
// examples/sweep_margin_map.cpp and the bench pin the count at zero.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/analyzer.hpp"
#include "circuits/netlist.hpp"

namespace shhpass::circuits {

/// One swept element: log-spaced multipliers around the netlist's
/// nominal value, from nominal*10^-decadesDown to nominal*10^+decadesUp.
struct SweepParameter {
  std::size_t component = 0;  ///< Index into Netlist::components().
  double decadesDown = 1.0;
  double decadesUp = 1.0;
  std::size_t points = 5;  ///< Samples along this axis (>= 1; a single
                           ///< point sits at the nominal value).
};

struct SweepSpec {
  /// Swept axes; the full sweep is their row-major cross product (the
  /// LAST parameter varies fastest).
  std::vector<SweepParameter> parameters;
  bool computeMargin = true;  ///< Also compute the passivity margin per
                              ///< point, inside each point's analysis
                              ///< (AnalysisRequest::marginTol).
  double marginTol = 1e-6;    ///< Bisection tolerance for the margin.
};

/// Absolute component values for every sweep point, row-major over the
/// parameter axes. Throws std::invalid_argument for an empty spec, zero
/// points on an axis, an out-of-range component index, a duplicate
/// component across parameters, or a point count that overflows size_t.
std::vector<std::vector<double>> expandSweep(const Netlist& net,
                                             const SweepSpec& spec);

/// One analyzed sweep point.
struct SweepPointResult {
  std::vector<double> values;  ///< Absolute value per swept parameter.
  bool ok = false;             ///< Analysis produced a report.
  api::AnalysisReport report;  ///< Meaningful when ok.
  std::string error;           ///< Status string when !ok.
  bool marginDefined = false;  ///< report.margin->defined (false when
                               ///< margins were not requested).
  double margin = 0.0;         ///< Meaningful when marginDefined.
};

struct SweepResult {
  std::vector<std::size_t> components;  ///< Swept component indices.
  std::vector<SweepPointResult> points;  ///< Row-major over the axes.
  std::size_t passiveCount = 0;
  /// Points whose batch report fails decisionEquals against the
  /// sequential oracle. Filled by verifySweepSequential (runSweep leaves
  /// it 0 without running the oracle — the library does not silently
  /// double the work).
  std::size_t decisionMismatches = 0;
};

/// Build the batch: one AnalysisRequest per sweep point (id
/// "sweep-NNNNNN", 1-based, point order), each carrying stampMna of the
/// netlist with that point's values and, when
/// spec.computeMargin, marginTol = spec.marginTol. Request options are
/// left unset so the analyzer defaults apply to both the batch and the
/// sequential oracle identically.
std::vector<api::AnalysisRequest> buildSweepRequests(const Netlist& net,
                                                     const SweepSpec& spec);

/// Run the sweep: expand, re-stamp, and runBatch; each point's margin
/// (when spec.computeMargin) comes out of its own analysis. Throws only
/// for malformed specs (expandSweep) or portless netlists (stampMna);
/// per-point analysis failures land in SweepPointResult::error.
SweepResult runSweep(const Netlist& net, const SweepSpec& spec,
                     const api::PassivityAnalyzer& analyzer);

/// Sequential oracle: analyze every point one at a time on the same
/// analyzer (no runBatch) and count points whose batch report (margin
/// included) fails decisionEquals. Stores the count into result.decisionMismatches
/// and returns it (0 is the contract).
std::size_t verifySweepSequential(const Netlist& net, const SweepSpec& spec,
                                  const api::PassivityAnalyzer& analyzer,
                                  SweepResult& result);

/// Margin-map JSON artifact (schema "shhpass-margin-map" v1): netlist
/// shape, swept parameters, per-point values/verdict/margin, and the
/// passive / mismatch counters.
std::string sweepMarginMapJson(const Netlist& net, const SweepSpec& spec,
                               const SweepResult& result);

}  // namespace shhpass::circuits
