#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "jsonlite.hpp"

namespace perfbench {

using shhpass::api::AnalysisReport;
using shhpass::api::AnalysisRequest;
using shhpass::api::ErrorCode;
namespace api = shhpass::api;
namespace circuits = shhpass::circuits;
namespace linalg = shhpass::linalg;

namespace {

/// SplitMix64: the benchmark's own seeded stream, mapped by hand (the
/// standard distributions are not pinned across standard libraries).
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= b[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void text(const std::string& s) {
    const std::uint64_t n = s.size();
    bytes(&n, sizeof n);
    bytes(s.data(), s.size());
  }
  void matrix(const linalg::Matrix& m) {
    const std::uint64_t shape[2] = {m.rows(), m.cols()};
    bytes(shape, sizeof shape);
    bytes(m.data(), m.rows() * m.cols() * sizeof(double));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void addItem(Inputs& in, std::string id, shhpass::ds::DescriptorSystem sys,
             ErrorCode expected) {
  AnalysisRequest req;
  req.id = std::move(id);
  req.system = std::move(sys);
  in.requests.push_back(std::move(req));
  in.expected.push_back(expected);
}

// Table-1 orders are fixed so every seed carries the same O(n^3) load
// (the batch wall is bounded by its order-300 item); the seed varies the
// random networks and the mutant sizes.
constexpr std::size_t kTableOrders[] = {40, 70, 100, 130, 160,
                                        190, 224, 250, 276, 300};
constexpr std::size_t kNetworkNodes[] = {20, 31, 42, 53, 64,
                                         76, 87, 98, 109, 120};

void makeBatchMixed(Inputs& in, std::uint64_t seed) {
  SeedStream rng(seed ^ 0xba7c4d1e5ull);
  Inputs regular;
  for (std::size_t i = 0; i < std::size(kTableOrders); ++i) {
    const bool impulsive = i % 2 == 0;
    addItem(regular,
            "table1-" + std::to_string(kTableOrders[i]) +
                (impulsive ? "-impulsive" : "-plain"),
            circuits::makeBenchmarkModel(kTableOrders[i], impulsive),
            ErrorCode::Ok);
    const bool sprinkle = i % 2 == 1;
    const unsigned netSeed = static_cast<unsigned>(rng.next());
    addItem(regular,
            "rlc-" + std::to_string(kNetworkNodes[i]) +
                (sprinkle ? "-sprinkled-" : "-") + std::to_string(netSeed),
            circuits::makeRandomRlcNetwork(kNetworkNodes[i], netSeed,
                                           sprinkle),
            ErrorCode::Ok);
  }
  // One item in six is a non-passive mutant; together they take every
  // early exit the four mutant generators reach.
  Inputs mutants;
  const std::size_t negR = 3 + rng.next() % 6;
  addItem(mutants, "mutant-negative-resistor-" + std::to_string(negR),
          circuits::makeNonPassiveNegativeResistor(negR),
          ErrorCode::UnstableFiniteModes);
  const std::size_t negD = 3 + rng.next() % 6;
  addItem(mutants, "mutant-negative-feedthrough-" + std::to_string(negD),
          circuits::makeNonPassiveNegativeFeedthrough(negD),
          ErrorCode::ProperPartNotPr);
  addItem(mutants, "mutant-indefinite-m1",
          circuits::makeNonPassiveIndefiniteM1(), ErrorCode::M1NotPsd);
  addItem(mutants, "mutant-higher-order-impulse",
          circuits::makeNonPassiveHigherOrderImpulse(),
          ErrorCode::ResidualImpulses);

  for (std::size_t m = 0; m < mutants.requests.size(); ++m) {
    for (std::size_t k = 0; k < 5; ++k) {
      const std::size_t i = 5 * m + k;
      in.requests.push_back(std::move(regular.requests[i]));
      in.expected.push_back(regular.expected[i]);
    }
    in.requests.push_back(std::move(mutants.requests[m]));
    in.expected.push_back(mutants.expected[m]);
  }
}

// A 12-section cap-at-port RLC ladder (order 37): port node 1, section k
// runs R from main node k-1 to its midnode, L from the midnode to main
// node k, and C from main node k to ground; a leak resistor closes the
// far end. Per-element values are jittered to [0.9, 1.1) x nominal, so
// every point of the sweep is passive by physics. The jitter is narrow
// because the margin bisection's bracket, and so its iteration count,
// scales with the element values: a wide jitter would make the pass
// time a function of the seed.
constexpr int kSections = 12;
constexpr std::size_t kPointsPerAxis = 6;

void makeSweepMargin(Inputs& in, std::uint64_t seed) {
  SeedStream rng(seed ^ 0x5feed1adull);
  auto jitter = [&rng] { return 0.9 + 0.2 * rng.unit(); };
  auto mainNode = [](int k) { return 2 * k + 1; };
  circuits::Netlist net(2 * kSections + 1);
  net.addPort(mainNode(0));
  for (int k = 1; k <= kSections; ++k) {
    net.addResistor(mainNode(k - 1), 2 * k, 1.0 * jitter());
    net.addInductor(2 * k, mainNode(k), 1e-3 * jitter());
    net.addCapacitor(mainNode(k), 0, 1e-6 * jitter());
  }
  net.addCapacitor(mainNode(0), 0, 1e-6 * jitter());
  net.addResistor(mainNode(kSections), 0, 50.0 * jitter());
  in.netlistText = circuits::writeSpice(net, "perfbench sweep-margin ladder");
  // The first R, L and C (components 0, 1, 2), one decade each way.
  for (std::size_t k = 0; k < 3; ++k)
    in.axes.push_back({k, 1.0, 1.0, kPointsPerAxis});
}

std::size_t sweepPointCount(const Inputs& in) {
  std::size_t n = 1;
  for (const circuits::SweepParameter& p : in.axes) n *= p.points;
  return n;
}

void checkReports(const Inputs& in, const PassOutput& out, CheckResult& c) {
  const bool largeOrder = in.workload == Workload::LargeOrder;
  c.attempted += in.requests.size();
  if (out.results.size() != in.requests.size() ||
      out.json.size() != in.requests.size()) {
    c.fail("pass produced no results: " + out.error, in.requests.size());
    return;
  }
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const std::string& id = in.requests[i].id;
    if (!out.results[i].ok()) {
      c.fail(id + ": " + out.results[i].status().toString());
      continue;
    }
    JsonValue doc;
    if (!parseJson(out.json[i], doc)) {
      c.fail(id + ": report JSON does not parse");
      continue;
    }
    const JsonValue* verdict = doc.get("verdict");
    const std::string want = api::errorCodeName(in.expected[i]);
    if (verdict == nullptr || verdict->text != want) {
      c.fail(id + ": verdict " + (verdict ? verdict->text : "?") +
             ", expected " + want);
      continue;
    }
    if (largeOrder) {
      const JsonValue* diag = doc.get("diagnostics");
      const JsonValue* proper = diag ? diag->get("properOrder") : nullptr;
      const JsonValue* reorder = diag ? diag->get("reorder") : nullptr;
      const JsonValue* rejected =
          reorder ? reorder->get("rejectedSwaps") : nullptr;
      const JsonValue* passive = doc.get("passive");
      if (passive == nullptr || !passive->boolean || proper == nullptr ||
          proper->number != 480.0 || rejected == nullptr ||
          rejected->number != 0.0)
        c.fail(id + ": report is not passive with properOrder 480 "
                    "and 0 rejected swaps");
    }
  }
}

void checkMarginMap(const Inputs& in, const PassOutput& out, CheckResult& c) {
  const std::size_t expected = sweepPointCount(in);
  c.attempted += expected;
  JsonValue doc;
  const JsonValue* points = nullptr;
  if (out.json.size() == 1 && parseJson(out.json[0], doc))
    points = doc.get("points");
  if (points == nullptr || points->items.size() != expected) {
    c.fail("margin map missing or with the wrong point count: " + out.error,
           expected);
    return;
  }
  for (std::size_t i = 0; i < expected; ++i) {
    const JsonValue& p = points->items[i];
    const JsonValue* ok = p.get("ok");
    const JsonValue* verdict = p.get("verdict");
    const JsonValue* defined = p.get("marginDefined");
    const JsonValue* margin = p.get("margin");
    if (ok == nullptr || !ok->boolean || verdict == nullptr ||
        verdict->text != "OK" || defined == nullptr || !defined->boolean ||
        margin == nullptr || margin->type != JsonValue::Type::Number)
      c.fail("sweep point " + std::to_string(i + 1) +
             " is not passive with a defined margin");
  }
}

circuits::SweepResult sweepByPhases(const circuits::Netlist& net,
                                    const circuits::SweepSpec& spec,
                                    const api::PassivityAnalyzer& analyzer,
                                    SpanLog* spans) {
  std::vector<std::vector<double>> points;
  {
    ScopedSpan s(spans, "circuits.expand");
    points = circuits::expandSweep(net, spec);
  }
  std::vector<AnalysisRequest> requests;
  {
    ScopedSpan s(spans, "circuits.build_requests");
    requests = circuits::buildSweepRequests(net, spec);
  }
  std::vector<api::Result<AnalysisReport>> batch;
  {
    ScopedSpan s(spans, "api.sweep_batch");
    batch = analyzer.runBatch(requests);
  }
  circuits::SweepResult result;
  for (const circuits::SweepParameter& p : spec.parameters)
    result.components.push_back(p.component);
  result.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    circuits::SweepPointResult& point = result.points[i];
    point.values = points[i];
    if (batch[i].ok()) {
      point.ok = true;
      point.report = batch[i].value();
      if (point.report.passive) ++result.passiveCount;
    } else {
      point.error = batch[i].status().toString();
    }
    if (spec.computeMargin && point.ok) {
      ScopedSpan s(spans, "core.margin", static_cast<long>(i));
      const shhpass::core::PassivityMargin margin =
          shhpass::core::passivityMargin(requests[i].system, spec.marginTol,
                                         analyzer.options().passivity.rankTol);
      point.marginDefined = margin.defined;
      point.margin = margin.margin;
    }
  }
  return result;
}

}  // namespace

bool parseWorkload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::LargeOrder, Workload::BatchMixed,
                     Workload::SweepMargin})
    if (name == workloadName(w)) {
      out = w;
      return true;
    }
  return false;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::LargeOrder: return "large-order";
    case Workload::BatchMixed: return "batch-mixed";
    case Workload::SweepMargin: return "sweep-margin";
  }
  return "?";
}

Settings settingsFor(Workload w, std::size_t nproc) {
  Settings s;
  s.nproc = std::max<std::size_t>(1, nproc);
  const std::size_t cap = std::min<std::size_t>(4, s.nproc);
  // large-order is one analyze() with a wide gemm; the batch workloads
  // spread items over workers with gemm inline.
  s.workers = w == Workload::LargeOrder ? 1 : cap;
  s.gemmWidth = w == Workload::LargeOrder ? cap : 1;
  return s;
}

Inputs makeInputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  switch (w) {
    case Workload::LargeOrder:
      // No randomness: the Table-1 model is a pure function of its order.
      addItem(in, "table1-800-impulsive",
              circuits::makeBenchmarkModel(800, /*impulsive=*/true),
              ErrorCode::Ok);
      break;
    case Workload::BatchMixed:
      makeBatchMixed(in, seed);
      break;
    case Workload::SweepMargin:
      makeSweepMargin(in, seed);
      break;
  }
  Fnv1a h;
  h.text(in.netlistText);
  for (const AnalysisRequest& r : in.requests) {
    h.text(r.id);
    for (const linalg::Matrix* m : {&r.system.e, &r.system.a, &r.system.b,
                                    &r.system.c, &r.system.d})
      h.matrix(*m);
  }
  in.fingerprint = h.value();
  return in;
}

circuits::SweepSpec sweepSpec(const Inputs& in) {
  circuits::SweepSpec spec;
  spec.parameters = in.axes;
  spec.computeMargin = true;
  return spec;
}

PassOutput runPass(const Inputs& in, const api::PassivityAnalyzer& analyzer,
                   SpanLog* spans) {
  PassOutput out;
  try {
    switch (in.workload) {
      case Workload::LargeOrder: {
        ScopedSpan s(spans, "api.analyze");
        out.results.push_back(analyzer.analyze(in.requests.front()));
        break;
      }
      case Workload::BatchMixed: {
        ScopedSpan s(spans, "api.run_batch");
        out.results = analyzer.runBatch(in.requests);
        break;
      }
      case Workload::SweepMargin: {
        api::Result<api::LoadedNetlist> loaded(api::Status::okStatus());
        {
          ScopedSpan s(spans, "api.parse");
          loaded = api::parseNetlist(in.netlistText);
        }
        if (!loaded.ok()) {
          out.error = loaded.status().toString();
          return out;
        }
        out.netlist = loaded->netlist;
        const circuits::SweepSpec spec = sweepSpec(in);
        out.sweep = spans == nullptr
                        ? circuits::runSweep(out.netlist, spec, analyzer)
                        : sweepByPhases(out.netlist, spec, analyzer, spans);
        ScopedSpan s(spans, "api.json");
        out.json.push_back(
            circuits::sweepMarginMapJson(out.netlist, spec, out.sweep));
        return out;
      }
    }
    ScopedSpan s(spans, "api.json");
    for (const api::Result<AnalysisReport>& r : out.results)
      out.json.push_back(r.ok() ? r->toJson() : std::string());
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

void CheckResult::add(const CheckResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  if (firstProblem.empty()) firstProblem = other.firstProblem;
}

void CheckResult::fail(std::string problem, std::size_t items) {
  failed += items;
  if (firstProblem.empty()) firstProblem = std::move(problem);
}

CheckResult checkPass(const Inputs& in, const PassOutput& out) {
  CheckResult c;
  if (in.workload == Workload::SweepMargin)
    checkMarginMap(in, out, c);
  else
    checkReports(in, out, c);
  return c;
}

}  // namespace perfbench
