// Shared helpers for shhpass tests: deterministic random matrices,
// common structural assertions, and a one-call Fig.-1 report.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/pipeline.hpp"
#include "circuits/generators.hpp"
#include "circuits/netlist.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace shhpass::testing {

using linalg::Matrix;

/// Deterministic xorshift64* PRNG for property-based tests. Unlike
/// std::mt19937 + distributions, the full sequence (including the floating
/// point mapping) is pinned by this header, so seeded test cases are
/// bit-reproducible across platforms and standard libraries.
class Xorshift {
 public:
  explicit Xorshift(std::uint64_t seed)
      : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Fair coin.
  bool flip() { return (next() & 1ull) != 0; }

 private:
  std::uint64_t state_;
};

/// Deterministic uniform [-1, 1) random matrix. Draws from the pinned
/// Xorshift stream above (std::*_distribution mappings are not pinned
/// across standard libraries — enforced by tools/lint_invariants.py);
/// the golden-ratio multiply decorrelates adjacent seeds, which helpers
/// like randomRankDeficient rely on (seed, seed + 1).
inline Matrix randomMatrix(std::size_t r, std::size_t c, unsigned seed) {
  Xorshift gen((static_cast<std::uint64_t>(seed) + 1) *
               0x9e3779b97f4a7c15ull);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = gen.uniform(-1.0, 1.0);
  return m;
}

/// Random symmetric matrix.
inline Matrix randomSymmetric(std::size_t n, unsigned seed) {
  Matrix m = randomMatrix(n, n, seed);
  Matrix s = m + m.transposed();
  s *= 0.5;
  return s;
}

/// Random symmetric positive definite matrix (A^T A + I).
inline Matrix randomSpd(std::size_t n, unsigned seed) {
  Matrix m = randomMatrix(n, n, seed);
  Matrix s = linalg::atb(m, m);
  for (std::size_t i = 0; i < n; ++i) s(i, i) += 1.0 + static_cast<double>(n);
  return s;
}

/// Random matrix of exact rank r (product of n x r and r x m factors).
inline Matrix randomRankDeficient(std::size_t n, std::size_t m, std::size_t r,
                                  unsigned seed) {
  return randomMatrix(n, r, seed) * randomMatrix(r, m, seed + 1);
}

/// Random Hurwitz-stable matrix: -(A^T A) - margin*I rotated by similarity.
inline Matrix randomStable(std::size_t n, unsigned seed, double margin = 0.1) {
  Matrix m = randomMatrix(n, n, seed);
  Matrix s = linalg::atb(m, m);
  Matrix a = -1.0 * s;
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= margin;
  // Mix with a skew part to get complex eigenvalues while staying stable:
  Matrix k = randomMatrix(n, n, seed + 7);
  Matrix skew = k - k.transposed();
  return a + 0.5 * skew;
}

inline void expectOrthonormalColumns(const Matrix& q, double tol = 1e-10) {
  const Matrix gram = linalg::atb(q, q);
  EXPECT_TRUE(gram.approxEqual(Matrix::identity(q.cols()), tol))
      << "columns not orthonormal; max dev "
      << (gram - Matrix::identity(q.cols())).maxAbs();
}

inline void expectMatrixNear(const Matrix& a, const Matrix& b,
                             double tol = 1e-10) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_TRUE(a.approxEqual(b, tol)) << "max dev " << (a - b).maxAbs();
}

/// Bit-for-bit matrix equality (shape + every entry's bit pattern) for
/// the determinism pins: approxEqual would hide a changed accumulation
/// order, and NaN/-0.0 must compare by representation, not value.
inline bool bitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.rows() * a.cols()) == 0;
}

/// The Fig.-1 report of `g` under `options` (api::runPipeline, no
/// analyzer). A verdict is a result; an operational failure fails the
/// calling test and returns the (meaningless) partial report.
inline api::AnalysisReport pipelineReport(
    const ds::DescriptorSystem& g, const core::PassivityOptions& options = {}) {
  api::PipelineState state;
  state.input = &g;
  state.options = options;
  const api::Status status = api::runPipeline(state);
  EXPECT_TRUE(status.ok() || api::isVerdictCode(status.code()))
      << status.toString();
  return std::move(state.report);
}

/// The pencil (E, A) as a system with one input and one output on the
/// first state.
inline ds::DescriptorSystem pencilSystem(const Matrix& e, const Matrix& a) {
  ds::DescriptorSystem s;
  s.e = e;
  s.a = a;
  s.b = Matrix(e.rows(), 1);
  s.b(0, 0) = 1.0;
  s.c = s.b.transposed();
  s.d = Matrix{{0.0}};
  return s;
}

/// One ladder of the scaled-ladder grid, with its id
/// "s<sections>-<cap|nocap>-R<r>-L<l>-C<c>".
struct GridLadder {
  std::string id;
  ds::DescriptorSystem system;
};

/// The scaled-ladder grid: 192 series-L / shunt-R||C ladders
/// (circuits::makeRlcLadder), passive by physics: {3, 10} sections x port
/// capacitor or not x R in {1 mOhm, 1 Ohm, 1 kOhm} x
/// L in {1 pH, 1 nH, 1 uH, 1 mH} x C in {1 fF, 1 pF, 1 nF, 1 uF}.
inline std::vector<GridLadder> scaledLadderGrid() {
  std::vector<GridLadder> grid;
  for (std::size_t sections : {3u, 10u})
    for (bool capAtPort : {false, true})
      for (double r : {1e-3, 1.0, 1e3})
        for (double l : {1e-12, 1e-9, 1e-6, 1e-3})
          for (double c : {1e-15, 1e-12, 1e-9, 1e-6}) {
            circuits::LadderOptions opt;
            opt.sections = sections;
            opt.capAtPort = capAtPort;
            opt.r = r;
            opt.l = l;
            opt.c = c;
            char id[64];
            std::snprintf(id, sizeof id, "s%zu-%s-R%g-L%g-C%g", sections,
                          capAtPort ? "cap" : "nocap", r, l, c);
            grid.push_back({id, circuits::makeRlcLadder(opt)});
          }
  return grid;
}

/// Deterministic random connected RLC netlist for the ingestion / sweep
/// property tests: a spanning chain guarantees every node is
/// element-connected (the parser's UnconnectedNode rule), extra R/L/C
/// branches are sprinkled across random distinct node pairs, values are
/// log-uniform across six decades, and 1-3 distinct ports are chosen.
inline circuits::Netlist randomConnectedNetlist(Xorshift& gen,
                                                int maxNodes = 8) {
  const int nodes = 2 + static_cast<int>(gen.pick(
                            static_cast<std::size_t>(maxNodes - 1)));
  circuits::Netlist net(nodes);
  auto randomValue = [&gen] {
    return std::pow(10.0, gen.uniform(-3.0, 3.0));
  };
  auto addRandom = [&](int n1, int n2) {
    switch (gen.pick(3)) {
      case 0: net.addResistor(n1, n2, randomValue()); break;
      case 1: net.addInductor(n1, n2, randomValue()); break;
      default: net.addCapacitor(n1, n2, randomValue()); break;
    }
  };
  // Spanning chain: node k attaches to a random strictly lower node.
  for (int k = 1; k <= nodes; ++k)
    addRandom(k, static_cast<int>(gen.pick(static_cast<std::size_t>(k))));
  const std::size_t extras = gen.pick(4);
  for (std::size_t e = 0; e < extras; ++e) {
    const int n1 = static_cast<int>(gen.pick(
        static_cast<std::size_t>(nodes) + 1));
    int n2 = n1;
    while (n2 == n1)
      n2 = static_cast<int>(gen.pick(static_cast<std::size_t>(nodes) + 1));
    addRandom(n1, n2);
  }
  const std::size_t numPorts = 1 + gen.pick(3);
  for (int p = 1; p <= nodes && static_cast<std::size_t>(p) <= numPorts;
       ++p)
    net.addPort(p);
  return net;
}

}  // namespace shhpass::testing
