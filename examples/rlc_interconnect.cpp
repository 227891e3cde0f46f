// VLSI-interconnect scenario (the paper's motivating workload): an MNA-
// stamped RLC ladder modelling an on-chip wire, checked for passivity with
// all three tests — the proposed SHH method through the unified public API
// (with its built-in per-stage timing), the Weierstrass baseline, and (for
// small orders) the LMI test — so this example doubles as a miniature
// Table 1 row.
//
//   $ ./rlc_interconnect [order]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "api/shhpass.hpp"
#include "baselines/lmi_passivity.hpp"
#include "baselines/weierstrass.hpp"

namespace {

template <typename F>
double seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shhpass;
  std::size_t order = 40;
  if (argc > 1) {
    const int parsed = std::atoi(argv[1]);
    if (parsed < 5) {
      std::fprintf(stderr, "usage: %s [order >= 5]\n", argv[0]);
      return 2;
    }
    order = static_cast<std::size_t>(parsed);
  }

  std::printf("== RLC interconnect model, order %zu (impulsive) ==\n", order);
  ds::DescriptorSystem g = circuits::makeBenchmarkModel(order, true);

  api::PassivityAnalyzer analyzer;
  api::Result<api::AnalysisReport> shh = analyzer.analyze(g);
  if (!shh.ok()) {
    std::printf("proposed SHH test failed: %s\n",
                shh.status().toString().c_str());
    return 1;
  }
  std::printf("proposed SHH test:   %-12s (%.4f s)  [deflated %zu impulsive,"
              " %zu nondynamic]\n",
              shh->passive ? "PASSIVE" : "NOT PASSIVE", shh->totalSeconds,
              shh->removedImpulsive, shh->removedNondynamic);
  for (const api::StageTrace& t : shh->stages)
    std::printf("    %-20s %.4f s\n", t.name.c_str(), t.seconds);

  ds::WeierstrassPassivityResult wei;
  const double tWei = seconds([&] { wei = ds::testPassivityWeierstrass(g); });
  std::printf("weierstrass test:    %-12s (%.4f s)  [cond(L) = %.2e,"
              " cond(R) = %.2e]\n",
              wei.passive ? "PASSIVE" : "NOT PASSIVE", tWei,
              wei.form.condLeft, wei.form.condRight);

  // The LMI baseline is O(n^5..6): ~5 s at order 20 and minutes beyond 30,
  // so the default order-40 run only times the two fast tests.
  if (order <= 20) {
    lmi::LmiPassivityResult lmi;
    const double tLmi = seconds([&] { lmi = lmi::testPassivityLmi(g); });
    std::printf("LMI test:            %-12s (%.4f s)  [%zu variables, %d"
                " Newton steps]\n",
                lmi.passive ? "PASSIVE" : "NOT PASSIVE", tLmi, lmi.variables,
                lmi.newtonIterations);
  } else {
    std::printf("LMI test:            skipped (O(n^5..6); order > 20)\n");
  }

  // A non-passive mutant for contrast: a -20 mOhm series defect at the port.
  api::Result<api::AnalysisReport> bad =
      analyzer.analyze(circuits::makeNonPassiveNegativeFeedthrough(5));
  if (!bad.ok()) {
    std::printf("mutant analysis failed: %s\n",
                bad.status().toString().c_str());
    return 1;
  }
  std::printf("\nnegative-feedthrough mutant: %s (verdict: %s)\n",
              bad->passive ? "PASSIVE (?!)" : "not passive",
              api::errorCodeName(bad->verdict));
  return shh->passive && !bad->passive ? 0 : 1;
}
