#include "circuits/sweep.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "api/json.hpp"
#include "circuits/mna.hpp"

namespace shhpass::circuits {

// ------------------------------------------------------------ expansion

namespace {

/// Log-spaced absolute values for one axis around the nominal value.
std::vector<double> axisValues(double nominal, const SweepParameter& p) {
  std::vector<double> out;
  out.reserve(p.points);
  for (std::size_t i = 0; i < p.points; ++i) {
    const double exponent =
        p.points == 1
            ? 0.0
            : -p.decadesDown + static_cast<double>(i) *
                                   (p.decadesDown + p.decadesUp) /
                                   static_cast<double>(p.points - 1);
    out.push_back(nominal * std::pow(10.0, exponent));
  }
  return out;
}

std::string pointId(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sweep-%06zu", index + 1);
  return std::string(buf);
}

const char* kindLetter(Component::Kind kind) {
  switch (kind) {
    case Component::Kind::Resistor: return "R";
    case Component::Kind::Inductor: return "L";
    case Component::Kind::Capacitor: return "C";
  }
  return "?";
}

}  // namespace

std::vector<std::vector<double>> expandSweep(const Netlist& net,
                                             const SweepSpec& spec) {
  if (spec.parameters.empty())
    throw std::invalid_argument("expandSweep: no sweep parameters");
  std::set<std::size_t> seen;
  std::vector<std::vector<double>> axes;
  for (const SweepParameter& p : spec.parameters) {
    if (p.component >= net.components().size())
      throw std::invalid_argument(
          "expandSweep: component index out of range");
    if (!seen.insert(p.component).second)
      throw std::invalid_argument(
          "expandSweep: duplicate component across parameters");
    if (p.points == 0)
      throw std::invalid_argument("expandSweep: axis with zero points");
    axes.push_back(axisValues(net.components()[p.component].value, p));
  }
  std::size_t total = 1;
  for (const auto& axis : axes) {
    if (total > std::numeric_limits<std::size_t>::max() / axis.size())
      throw std::invalid_argument("expandSweep: point count overflows");
    total *= axis.size();
  }
  std::vector<std::vector<double>> points;
  points.reserve(total);
  // Row-major cross product: the LAST parameter varies fastest.
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t p = 0; p < total; ++p) {
    std::vector<double> values(axes.size());
    for (std::size_t k = 0; k < axes.size(); ++k) values[k] = axes[k][idx[k]];
    points.push_back(std::move(values));
    for (std::size_t k = axes.size(); k-- > 0;) {
      if (++idx[k] < axes[k].size()) break;
      idx[k] = 0;
    }
  }
  return points;
}

// ------------------------------------------------------------ batch build

namespace {

std::vector<api::AnalysisRequest> buildRequests(
    const Netlist& net, const SweepSpec& spec,
    const std::vector<std::vector<double>>& points) {
  Netlist point = net;
  std::vector<api::AnalysisRequest> requests;
  requests.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t k = 0; k < spec.parameters.size(); ++k)
      point.setComponentValue(spec.parameters[k].component, points[p][k]);
    api::AnalysisRequest req;
    req.id = pointId(p);
    req.system = stampMna(point);
    if (spec.computeMargin) req.marginTol = spec.marginTol;
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace

std::vector<api::AnalysisRequest> buildSweepRequests(const Netlist& net,
                                                     const SweepSpec& spec) {
  return buildRequests(net, spec, expandSweep(net, spec));
}

SweepResult runSweep(const Netlist& net, const SweepSpec& spec,
                     const api::PassivityAnalyzer& analyzer) {
  const std::vector<std::vector<double>> points = expandSweep(net, spec);
  const std::vector<api::AnalysisRequest> requests =
      buildRequests(net, spec, points);
  const std::vector<api::Result<api::AnalysisReport>> batch =
      analyzer.runBatch(requests);

  SweepResult result;
  for (const SweepParameter& p : spec.parameters)
    result.components.push_back(p.component);
  result.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SweepPointResult& point = result.points[i];
    point.values = points[i];
    if (batch[i].ok()) {
      point.ok = true;
      point.report = batch[i].value();
      if (point.report.passive) ++result.passiveCount;
      if (point.report.margin) {
        point.marginDefined = point.report.margin->defined;
        point.margin = point.report.margin->margin;
      }
    } else {
      point.error = batch[i].status().toString();
    }
  }
  return result;
}

std::size_t verifySweepSequential(const Netlist& net, const SweepSpec& spec,
                                  const api::PassivityAnalyzer& analyzer,
                                  SweepResult& result) {
  const std::vector<api::AnalysisRequest> requests =
      buildSweepRequests(net, spec);
  if (requests.size() != result.points.size())
    throw std::invalid_argument(
        "verifySweepSequential: result does not match the spec");
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const api::Result<api::AnalysisReport> oracle =
        analyzer.analyze(requests[i]);
    const SweepPointResult& point = result.points[i];
    if (oracle.ok() != point.ok ||
        (oracle.ok() && !oracle.value().decisionEquals(point.report)))
      ++mismatches;
  }
  result.decisionMismatches = mismatches;
  return mismatches;
}

std::string sweepMarginMapJson(const Netlist& net, const SweepSpec& spec,
                               const SweepResult& result) {
  api::json::Writer w;
  w.beginObject();
  w.key("schema").value("shhpass-margin-map");
  w.key("schemaVersion").value(std::size_t{1});
  w.key("netlist").beginObject();
  w.key("numNodes").value(static_cast<std::size_t>(net.numNodes()));
  w.key("components").value(net.components().size());
  w.key("ports").value(net.ports().size());
  w.endObject();
  w.key("parameters").beginArray();
  for (const SweepParameter& p : spec.parameters) {
    w.beginObject();
    w.key("component").value(p.component);
    w.key("kind").value(kindLetter(net.components()[p.component].kind));
    w.key("nominal").value(net.components()[p.component].value);
    w.key("decadesDown").value(p.decadesDown);
    w.key("decadesUp").value(p.decadesUp);
    w.key("points").value(p.points);
    w.endObject();
  }
  w.endArray();
  w.key("points").beginArray();
  for (const SweepPointResult& point : result.points) {
    w.beginObject();
    w.key("values").beginArray();
    for (double v : point.values) w.value(v);
    w.endArray();
    w.key("ok").value(point.ok);
    if (point.ok) {
      w.key("id").value(point.report.id);
      w.key("passive").value(point.report.passive);
      w.key("verdict").value(api::errorCodeName(point.report.verdict));
    } else {
      w.key("error").value(point.error);
    }
    w.key("marginDefined").value(point.marginDefined);
    if (point.marginDefined) w.key("margin").value(point.margin);
    w.endObject();
  }
  w.endArray();
  w.key("passiveCount").value(result.passiveCount);
  w.key("decisionMismatches").value(result.decisionMismatches);
  w.endObject();
  return w.str();
}

}  // namespace shhpass::circuits
