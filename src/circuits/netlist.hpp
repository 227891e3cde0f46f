// Minimal RLC netlist representation. Node 0 is ground and is eliminated
// during MNA stamping. Ports are current-driven (current injected into a
// node, returned through ground), so the stamped descriptor system realizes
// the impedance matrix Z(s) — positive real for any physical RLC network.
#pragma once

#include <cstddef>
#include <vector>

namespace shhpass::circuits {

/// One two-terminal element.
struct Component {
  enum class Kind { Resistor, Inductor, Capacitor };
  Kind kind;
  int n1 = 0;     ///< First node (0 = ground).
  int n2 = 0;     ///< Second node (0 = ground).
  double value = 0.0;  ///< Ohms / Henries / Farads; must be > 0 for a
                       ///< passive element (negative values are allowed to
                       ///< build non-passive mutants for testing).
};

/// A flat netlist with numbered nodes 1..numNodes (0 is ground).
class Netlist {
 public:
  /// Throws std::invalid_argument if `numNodes` is negative.
  explicit Netlist(int numNodes);

  int numNodes() const { return numNodes_; }
  const std::vector<Component>& components() const { return comps_; }
  const std::vector<int>& ports() const { return ports_; }

  /// Validates node indices and rejects shorted, zero-valued or
  /// non-finite elements (throws std::invalid_argument); negative values
  /// are allowed, to build non-passive mutants.
  Netlist& addComponent(Component c);
  Netlist& addResistor(int n1, int n2, double ohms) {
    return addComponent({Component::Kind::Resistor, n1, n2, ohms});
  }
  Netlist& addInductor(int n1, int n2, double henries) {
    return addComponent({Component::Kind::Inductor, n1, n2, henries});
  }
  Netlist& addCapacitor(int n1, int n2, double farads) {
    return addComponent({Component::Kind::Capacitor, n1, n2, farads});
  }

  /// Declare a current-injection port at `node` (vs ground). Throws
  /// std::invalid_argument for ground or an out-of-range node.
  Netlist& addPort(int node);

  /// Change the value of components()[index] in place (parametric
  /// sweeps). Throws std::invalid_argument for an out-of-range index or
  /// a zero, NaN or infinite value; negative values are allowed, as in
  /// addComponent.
  Netlist& setComponentValue(std::size_t index, double value);

  std::size_t numInductors() const;

 private:
  static void checkValue(double value);
  void checkNode(int n) const;

  int numNodes_;
  std::vector<Component> comps_;
  std::vector<int> ports_;
};

}  // namespace shhpass::circuits
