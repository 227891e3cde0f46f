// Fig. 2 of the paper: two data series.
//   (top)    log-scale CPU times of all three tests vs model order;
//   (bottom) linear-scale CPU times of the proposed test vs the
//            Weierstrass decomposition up to order 400.
// Emits both series as whitespace-separated columns ready for plotting.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace shhpass;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;
  const std::size_t lmiMax = bench::lmiOrderCap(quick, /*fullCap=*/20);

  std::vector<std::size_t> orders = {20, 40, 60, 80, 100, 150, 200, 300, 400};
  if (quick) orders = {20, 40, 60, 80, 100};

  std::printf("# Fig 2 (top): CPU times, all tests (log scale when plotted)\n");
  std::printf("%-10s %-12s %-14s %-14s\n", "order", "lmi", "proposed",
              "weierstrass");
  std::vector<double> tp(orders.size()), tw(orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const std::size_t n = orders[i];
    ds::DescriptorSystem g = circuits::makeBenchmarkModel(n, true);
    tp[i] = bench::timeProposed(g);
    tw[i] = bench::timeWeierstrass(g);
    if (n <= lmiMax)
      std::printf("%-10zu %-12.4f %-14.4f %-14.4f\n", n,
                  bench::timeLmi(n), tp[i], tw[i]);
    else
      std::printf("%-10zu %-12s %-14.4f %-14.4f\n", n, "nan", tp[i], tw[i]);
    std::fflush(stdout);
  }

  std::printf("\n# Fig 2 (bottom): proposed vs Weierstrass (linear scale)\n");
  std::printf("%-10s %-14s %-14s %-10s\n", "order", "proposed",
              "weierstrass", "ratio");
  for (std::size_t i = 0; i < orders.size(); ++i)
    std::printf("%-10zu %-14.4f %-14.4f %-10.3f\n", orders[i], tp[i], tw[i],
                tw[i] / std::max(tp[i], 1e-12));
  return 0;
}
