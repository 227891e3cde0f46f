#include "circuits/generators.hpp"

#include <cstdint>
#include <random>
#include <stdexcept>

#include "circuits/mna.hpp"

namespace shhpass::circuits {

using linalg::Matrix;

namespace {

// Node numbering of the ladder: main nodes m(k) and section midnodes x(k).
int mainNode(std::size_t k) { return k == 0 ? 1 : static_cast<int>(2 * k + 1); }
int midNode(std::size_t k) { return static_cast<int>(2 * k); }

Netlist ladderNetlistWithTail(const LadderOptions& opt, std::size_t tailNodes) {
  if (opt.sections == 0)
    throw std::invalid_argument("makeRlcLadder: need at least one section");
  const std::size_t s = opt.sections;
  const int baseNodes = static_cast<int>(2 * s + 1);
  Netlist net(baseNodes + static_cast<int>(tailNodes));
  net.addPort(mainNode(0));
  if (opt.twoPort) net.addPort(mainNode(s));
  for (std::size_t k = 1; k <= s; ++k) {
    const bool ll =
        opt.impulsiveEvery > 0 && (k % opt.impulsiveEvery == 0) && k > 1;
    if (ll) {
      net.addInductor(mainNode(k - 1), midNode(k), opt.l);
      // Damping resistor in parallel with the whole L-L pair: it does not
      // touch the (purely inductive, impulsive) midnode but keeps the LC
      // resonance of the section strictly in the left half plane, as the
      // paper's stability assumption requires.
      net.addResistor(mainNode(k - 1), mainNode(k), 10.0 * opt.r);
    } else {
      net.addResistor(mainNode(k - 1), midNode(k), opt.r);
    }
    net.addInductor(midNode(k), mainNode(k), opt.l);
    net.addCapacitor(mainNode(k), 0, opt.c);
  }
  if (opt.capAtPort) net.addCapacitor(mainNode(0), 0, opt.c);
  net.addResistor(mainNode(s), 0, opt.shuntR);
  // RC tail off the last main node: each node adds exactly one state.
  int prev = mainNode(s);
  for (std::size_t t = 0; t < tailNodes; ++t) {
    const int node = baseNodes + static_cast<int>(t) + 1;
    net.addResistor(prev, node, opt.r);
    net.addCapacitor(node, 0, opt.c);
    prev = node;
  }
  return net;
}

std::size_t ladderOrder(const LadderOptions& opt) {
  // States = node voltages + inductor currents.
  const std::size_t s = opt.sections;
  std::size_t inductors = s;
  if (opt.impulsiveEvery > 0)
    for (std::size_t k = 2; k <= s; ++k)
      if (k % opt.impulsiveEvery == 0) ++inductors;
  return (2 * s + 1) + inductors;
}

}  // namespace

Netlist makeRlcLadderNetlist(const LadderOptions& opt) {
  return ladderNetlistWithTail(opt, 0);
}

ds::DescriptorSystem makeRlcLadder(const LadderOptions& opt) {
  return stampMna(makeRlcLadderNetlist(opt));
}

ds::DescriptorSystem makeBenchmarkModel(std::size_t order, bool impulsive) {
  if (order < 5)
    throw std::invalid_argument("makeBenchmarkModel: order must be >= 5");
  LadderOptions opt;
  opt.impulsiveEvery = impulsive ? 3 : 0;
  opt.capAtPort = !impulsive;
  // Largest section count whose ladder order does not exceed the target;
  // the remainder is made up with single-state RC tail nodes.
  std::size_t s = 1;
  while (true) {
    LadderOptions probe = opt;
    probe.sections = s + 1;
    if (ladderOrder(probe) > order) break;
    ++s;
  }
  opt.sections = s;
  const std::size_t base = ladderOrder(opt);
  const std::size_t tail = order - base;
  ds::DescriptorSystem sys = stampMna(ladderNetlistWithTail(opt, tail));
  if (sys.order() != order)
    throw std::logic_error("makeBenchmarkModel: order bookkeeping error");
  return sys;
}

ds::DescriptorSystem makeRandomRlcNetwork(std::size_t nodes, unsigned seed,
                                          bool sprinkleImpulsive) {
  if (nodes < 2)
    throw std::invalid_argument("makeRandomRlcNetwork: need >= 2 nodes");
  // The mt19937 stream is pinned by the C++ standard, but the standard
  // DISTRIBUTIONS are not (their mapping is implementation-defined), so
  // values are mapped by hand: same seed => bit-identical network on every
  // platform. Benchmarks and golden verdicts rely on this.
  std::mt19937 gen(seed);
  auto val = [&gen]() {
    return 0.5 + 1.5 * (static_cast<double>(gen()) * 0x1.0p-32);
  };
  auto pick = [&gen, nodes]() {
    return 1 + static_cast<int>(gen() % static_cast<std::uint32_t>(nodes));
  };
  Netlist net(static_cast<int>(nodes));
  net.addPort(1);
  // DC leak to ground keeps all finite poles strictly stable.
  net.addResistor(static_cast<int>(nodes), 0, val() * 10.0);
  // Spanning chain of resistors guarantees connectivity.
  for (std::size_t k = 1; k < nodes; ++k)
    net.addResistor(static_cast<int>(k), static_cast<int>(k + 1), val());
  // Shunt capacitors (skip every 5th node when sprinkling singular-E spots;
  // those nodes still touch resistors, so they become nondynamic modes).
  for (std::size_t k = 1; k <= nodes; ++k) {
    if (sprinkleImpulsive && k % 5 == 0) continue;
    net.addCapacitor(static_cast<int>(k), 0, val() * 1e-6);
  }
  // Random extra branches: resistive and damped inductive cross links.
  // Inductive links go through a dedicated midnode in series with a small
  // resistor, so no pure-inductor loop (which would carry an undamped
  // circulating-current mode at s = 0) can ever form.
  const std::size_t extras = nodes;
  std::vector<std::pair<int, int>> links;
  for (std::size_t k = 0; k < extras; ++k) {
    int a = pick(), b = pick();
    if (a == b) continue;
    links.emplace_back(a, b);
  }
  std::size_t lCount = 0;
  for (std::size_t k = 0; k < links.size(); ++k)
    if (k % 2 == 0) ++lCount;
  Netlist full(static_cast<int>(nodes + lCount));
  full.addPort(1);
  for (const Component& comp : net.components()) full.addComponent(comp);
  int nextNode = static_cast<int>(nodes) + 1;
  for (std::size_t k = 0; k < links.size(); ++k) {
    const auto [a, b] = links[k];
    if (k % 2 == 0) {
      full.addResistor(a, nextNode, 0.1 * val());
      full.addInductor(nextNode, b, val() * 1e-3);
      ++nextNode;
    } else {
      full.addResistor(a, b, val());
    }
  }
  return stampMna(full);
}

ds::DescriptorSystem makeNonPassiveNegativeResistor(std::size_t sections) {
  LadderOptions opt;
  opt.sections = sections;
  opt.capAtPort = true;
  Netlist net = makeRlcLadderNetlist(opt);
  // Negate the shunt leak resistor, the last resistor added (an active
  // element that makes Re Z(0) < 0 at the port, since it dominates the
  // series path).
  const std::vector<Component>& comps = net.components();
  std::size_t leak = comps.size() - 1;
  while (comps[leak].kind != Component::Kind::Resistor) --leak;
  net.setComponentValue(leak, -comps[leak].value);
  return stampMna(net);
}

ds::DescriptorSystem makeNonPassiveNegativeFeedthrough(std::size_t sections) {
  LadderOptions opt;
  opt.sections = sections;
  opt.capAtPort = true;
  ds::DescriptorSystem sys = makeRlcLadder(opt);
  // A -20 mOhm series element at the port: poles untouched, but
  // Re Z(j inf) = -0.02 < 0 violates positive realness.
  sys.d = -0.02 * Matrix::identity(sys.numInputs());
  return sys;
}

ds::DescriptorSystem makeNonPassiveIndefiniteM1() {
  // Two ports. Proper part: G_p(s) = I2 + I2/(s+1) (passive). Impulsive
  // part: two nilpotent 2x2 blocks contributing s*M1 with M1 = diag(1, -1).
  // State layout: [proper(2) | block1(2) | block2(2)].
  const std::size_t n = 6;
  ds::DescriptorSystem sys;
  sys.e = Matrix::zeros(n, n);
  sys.a = Matrix::zeros(n, n);
  sys.b = Matrix::zeros(n, 2);
  sys.c = Matrix::zeros(2, n);
  sys.d = Matrix::identity(2);
  // Proper block: E = I, A = -I, B = I, C = I.
  sys.e.setBlock(0, 0, Matrix::identity(2));
  sys.a.setBlock(0, 0, -1.0 * Matrix::identity(2));
  sys.b(0, 0) = 1.0;
  sys.b(1, 1) = 1.0;
  sys.c(0, 0) = 1.0;
  sys.c(1, 1) = 1.0;
  // Impulsive blocks: E = N = [0 1; 0 0], A = I, contribution to G is
  // c (sN - I)^{-1} b = -(c.b) - s (c N b). Choose c N b = -m1 so the
  // s-coefficient is +m1.
  auto addNilpotentBlock = [&](std::size_t at, std::size_t port, double m1) {
    sys.e(at, at + 1) = 1.0;
    sys.a(at, at) = 1.0;
    sys.a(at + 1, at + 1) = 1.0;
    sys.b(at + 1, port) = 1.0;
    sys.c(port, at) = -m1;
  };
  addNilpotentBlock(2, 0, 1.0);
  addNilpotentBlock(4, 1, -1.0);
  return sys;
}

ds::DescriptorSystem makeNonPassiveHigherOrderImpulse() {
  // One port: G(s) = 1 + 1/(s+1) + s^2 (M2 = 1 != 0 violates Eq. (3)).
  // 3-chain nilpotent block: E = N with N e2 = e1, N e3 = e2; A = I;
  // c (sN - I)^{-1} b = -(c.b) - s (c N b) - s^2 (c N^2 b).
  const std::size_t n = 4;
  ds::DescriptorSystem sys;
  sys.e = Matrix::zeros(n, n);
  sys.a = Matrix::zeros(n, n);
  sys.b = Matrix::zeros(n, 1);
  sys.c = Matrix::zeros(1, n);
  sys.d = Matrix{{1.0}};
  // Proper scalar block.
  sys.e(0, 0) = 1.0;
  sys.a(0, 0) = -1.0;
  sys.b(0, 0) = 1.0;
  sys.c(0, 0) = 1.0;
  // Nilpotent 3-chain on states 1..3.
  sys.e(1, 2) = 1.0;
  sys.e(2, 3) = 1.0;
  for (std::size_t i = 1; i < 4; ++i) sys.a(i, i) = 1.0;
  sys.b(3, 0) = 1.0;   // b hits the chain tail
  sys.c(0, 1) = -1.0;  // c reads the chain head: c N^2 b = -1 -> M2 = +1
  return sys;
}

}  // namespace shhpass::circuits
