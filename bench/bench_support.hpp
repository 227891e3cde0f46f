// Shared helpers for the benchmark binaries: wall-clock timing and the
// three passivity tests under measurement (proposed SHH, Weierstrass
// baseline, LMI baseline).
//
// Determinism contract: every model a benchmark row is computed on is a
// PURE function of its printed parameters, so rows (and golden verdicts
// derived from them) are reproducible bit-for-bit across runs and
// platforms. Concretely:
//   * circuits::makeBenchmarkModel(order, impulsive) uses no randomness at
//     all — the ladder topology and element values are derived from
//     `order` alone;
//   * circuits::makeRandomRlcNetwork(nodes, seed, ...) derives every
//     random choice from the explicit `seed` via a fixed mt19937 stream —
//     same seed, same network, bit-for-bit;
//   * the wall times are the only nondeterministic column.
// Enforced by Generators.ModelGeneratorsAreBitDeterministic in
// tests/test_circuits.cpp; extend that test when adding a generator here.
// std::*_distribution types are banned tree-wide (their mappings are not
// pinned across standard libraries — tools/lint_invariants.py rule
// no-std-distribution): map raw engine output by hand as seededMatrix
// and makeRandomRlcNetwork do.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "api/shhpass.hpp"
#include "baselines/lmi_passivity.hpp"
#include "baselines/weierstrass.hpp"
#include "control/hamiltonian.hpp"
#include "linalg/blas.hpp"

namespace shhpass::bench {

/// Deterministic seeded random matrix for kernel benchmarks, generated by
/// the same xorshift64* recurrence tests/test_support.hpp pins (the bench
/// tree cannot include tests/). The exact shift/multiply constants are
/// part of the determinism contract above: change them only in lockstep
/// with testing::Xorshift.
inline linalg::Matrix seededMatrix(std::size_t rows, std::size_t cols,
                                   std::uint64_t seed) {
  linalg::Matrix m(rows, cols);
  std::uint64_t s = seed ? seed : 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    m.data()[i] =
        static_cast<double>((s * 0x2545f4914f6cdd1dull) >> 11) * 0x1.0p-53 -
        0.5;
  }
  return m;
}

/// Seeded order-2np Hamiltonian [A -B B^T; -C^T C -A^T] with A Hurwitz
/// (-(M^T M) - 0.1 I plus a skew part for complex eigenvalues) and two
/// ports, so its spectrum splits evenly about the imaginary axis.
inline linalg::Matrix seededHamiltonian(std::size_t np, std::uint64_t seed) {
  const linalg::Matrix m = seededMatrix(np, np, seed);
  const linalg::Matrix k = seededMatrix(np, np, seed + 1);
  linalg::Matrix a = -1.0 * linalg::atb(m, m) + 0.5 * (k - k.transposed());
  for (std::size_t i = 0; i < np; ++i) a(i, i) -= 0.1;
  const linalg::Matrix b = seededMatrix(np, 2, seed + 2);
  const linalg::Matrix c = seededMatrix(2, np, seed + 3);
  return control::makeHamiltonian(a, -1.0 * linalg::abt(b, b),
                                  -1.0 * linalg::atb(c, c));
}

/// Seeded order-2h skew-Hamiltonian [A G; Q A^T] with G and Q
/// skew-symmetric: the input of the isotropic-Arnoldi kernel row.
inline linalg::Matrix seededSkewHamiltonian(std::size_t half,
                                            std::uint64_t seed) {
  const linalg::Matrix a = seededMatrix(half, half, seed);
  const linalg::Matrix g = seededMatrix(half, half, seed + 1);
  const linalg::Matrix q = seededMatrix(half, half, seed + 2);
  linalg::Matrix w(2 * half, 2 * half);
  w.setBlock(0, 0, a);
  w.setBlock(0, half, g - g.transposed());
  w.setBlock(half, 0, q - q.transposed());
  w.setBlock(half, half, a.transposed());
  return w;
}

/// Nominal flop model of a square-n SVD: 8/3 n^3 bidiagonalization +
/// 10/3 n^3 U/V generation + ~8 n^3 for the implicit-QR rotation
/// sweep = 14 n^3. The sweep count is input-dependent, so SVD GFLOP/s
/// is a comparable index, not a hardware-utilization figure
/// (docs/BENCHMARKS.md).
inline double svdNominalFlops(std::size_t n) {
  return 14.0 * static_cast<double>(n) * n * n;
}

/// Nominal flop model of a square-n real Schur decomposition with full
/// Q accumulation: 10/3 n^3 Hessenberg reduction + 4/3 n^3 Q
/// accumulation + ~20 n^3 for the QR iteration (the classical
/// ~2-iterations-per-eigenvalue estimate). The iteration count is
/// input-dependent, so Schur GFLOP/s is a comparable index across
/// variants and PRs, not a hardware-utilization figure.
inline double schurNominalFlops(std::size_t n) {
  return 25.0 * static_cast<double>(n) * n * n;
}

/// Wall-clock seconds for one invocation of `fn`.
inline double timeSeconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Largest model order the LMI baseline is timed at in the Table-1 and
/// Fig.-2 reproductions: SHHPASS_LMI_MAX when set, else 20 under
/// --quick (the order-40 LMI alone takes minutes), else `fullCap`.
inline std::size_t lmiOrderCap(bool quick, std::size_t fullCap) {
  if (const char* env = std::getenv("SHHPASS_LMI_MAX"))
    return static_cast<std::size_t>(std::atoi(env));
  return quick ? 20 : fullCap;
}

/// The three tests of Table 1 on one model. The proposed test runs through
/// the public PassivityAnalyzer engine (the timed path of production use).
inline double timeProposed(const ds::DescriptorSystem& g) {
  static const api::PassivityAnalyzer analyzer;
  return timeSeconds([&] {
    api::Result<api::AnalysisReport> r = analyzer.analyze(g);
    if (!r.ok())
      std::fprintf(stderr, "WARN: proposed test failed: %s\n",
                   r.status().toString().c_str());
    else if (!r->passive)
      std::fprintf(stderr, "WARN: proposed test: not passive\n");
  });
}

inline double timeWeierstrass(const ds::DescriptorSystem& g) {
  // The Weierstrass baseline can fail outright on large ill-conditioned
  // pencils (the separation of finite/infinite spectra breaks down); a
  // benchmark row must survive that and report the wall time of the
  // attempt.
  return timeSeconds([&] {
    try {
      ds::WeierstrassPassivityResult r = ds::testPassivityWeierstrass(g);
      if (!r.passive)
        std::fprintf(stderr, "WARN: weierstrass test: not passive\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "WARN: weierstrass test failed: %s\n", e.what());
    }
  });
}

/// LMI baseline timing at a given model order.
///
/// The Freund-Jarre LMI is a conclusive certificate only when the system is
/// strictly feasible: it needs D + D^T > M0 + M0^T (Sec. 2.2 necessity) and
/// an impulse-free pencil (impulsive chains pin the (1,1) block of Eq. 4 to
/// the semidefinite boundary, where barrier methods cannot discriminate).
/// The LMI column is therefore timed on the impulse-free sibling of the
/// benchmark model, port-augmented with a 2-Ohm series feedthrough — the
/// same order, sparsity, and interior-point cost. See EXPERIMENTS.md.
inline double timeLmi(std::size_t order) {
  ds::DescriptorSystem g =
      circuits::makeBenchmarkModel(order, /*impulsive=*/false);
  for (std::size_t i = 0; i < g.d.rows(); ++i) g.d(i, i) += 2.0;
  return timeSeconds([&] {
    lmi::LmiPassivityResult r = lmi::testPassivityLmi(g);
    if (!r.passive) std::fprintf(stderr, "WARN: lmi test: not passive\n");
  });
}

}  // namespace shhpass::bench
