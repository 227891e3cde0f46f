// Ablation A2 (Sec. 2.4 / Sec. 4 remarks): conditioning of the transforms.
// The paper argues that the Weierstrass route "generally involves
// ill-conditioned and non-orthogonal transformations" while the proposed
// test uses numerically well-conditioned orthogonal transformations
// wherever possible. This bench measures, per model order:
//   * condition numbers of the Weierstrass left/right transforms,
//   * condition number of the proposed pipeline's only non-orthogonal
//     factor (the diagonal E3 normalizer of Eq. 21, s_max / s_min),
//   * the transfer-function reproduction error of each decomposition.
// The proposed side is one api::runPipeline run (prerequisites and every
// Fig.-1 gate included); the Weierstrass side decomposes the same
// balanced system the pipeline analyzed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace shhpass;
using linalg::Matrix;

// The proposed side uses orthogonal transforms plus one diagonal scaling
// (Eq. 21), so its Phi reproduction stays at roundoff level on the
// benchmark ladders; a larger error is reported as a WARN line.
constexpr double kMaxProperPartError = 1e-11;

// Max relative deviation of Phi(jw) reproduced by the extracted stable
// proper part Hp: Phi = Hp + Hp~.
double properPartError(const ds::DescriptorSystem& gBal,
                       const core::ProperPartResult& pp) {
  ds::DescriptorSystem hp;
  hp.e = Matrix::identity(pp.lambda.rows());
  hp.a = pp.lambda;
  hp.b = pp.b1;
  hp.c = pp.c1;
  hp.d = pp.dHalf;
  ds::DescriptorSystem phi = ds::add(gBal, ds::adjoint(gBal));
  double worst = 0.0;
  for (double w : {0.1, 1.0, 10.0, 100.0}) {
    ds::TransferValue hv = ds::evalTransfer(hp, 0.0, w);
    ds::TransferValue pv = ds::evalTransfer(phi, 0.0, w);
    Matrix herm = hv.re + hv.re.transposed();
    const double scale = std::max(1.0, pv.re.maxAbs());
    worst = std::max(worst, (herm - pv.re).maxAbs() / scale);
  }
  return worst;
}

// Max relative deviation of G(jw) reproduced by the Weierstrass form.
double weierstrassError(const ds::DescriptorSystem& g,
                        const ds::WeierstrassForm& wf) {
  ds::DescriptorSystem proper;
  proper.e = Matrix::identity(wf.numFinite());
  proper.a = wf.ap;
  proper.b = wf.bp;
  proper.c = wf.cp;
  proper.d = wf.d;
  double worst = 0.0;
  for (double w : {0.1, 1.0, 10.0, 100.0}) {
    ds::TransferValue gv = ds::evalTransfer(g, 0.0, w);
    ds::TransferValue pv = ds::evalTransfer(proper, 0.0, w);
    // Add the polynomial part from the Markov parameters (index <= 2).
    auto mk = wf.markovParameters(2);
    Matrix re = pv.re + mk[0];
    Matrix im = pv.im + w * mk[1];
    const double scale = std::max(1.0, gv.re.maxAbs());
    worst = std::max(worst,
                     std::max((re - gv.re).maxAbs(), (im - gv.im).maxAbs()) /
                         scale);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;
  std::vector<std::size_t> orders = {20, 40, 80, 120, 200};
  if (quick) orders = {20, 40, 80};

  std::printf("# Conditioning of transforms: Weierstrass vs proposed\n");
  std::printf("%-8s %-13s %-13s %-13s %-13s %-13s\n", "order", "cond(Wei-L)",
              "cond(Wei-R)", "cond(K-prop)", "err(Wei)", "err(proposed)");
  for (std::size_t n : orders) {
    const ds::DescriptorSystem g = circuits::makeBenchmarkModel(n, true);
    api::PipelineState state;
    state.input = &g;
    const api::Status status = api::runPipeline(state);
    if (!status.ok())  // every benchmark model is passive
      std::fprintf(stderr, "WARN: order %zu: proposed test: %s\n", n,
                   status.toString().c_str());
    const ds::DescriptorSystem& bal = state.balanced.sys;

    ds::WeierstrassForm wf = ds::weierstrass(bal);
    const double errW = weierstrassError(bal, wf);

    double condK = std::nan(""), errP = std::nan("");
    if (state.properPart.ok) {
      condK = state.properPart.condNormalizer;
      errP = properPartError(bal, state.properPart);
      if (errP > kMaxProperPartError)
        std::fprintf(stderr,
                     "WARN: order %zu: err(proposed) %.3e above %.0e\n", n,
                     errP, kMaxProperPartError);
    }
    std::printf("%-8zu %-13.3e %-13.3e %-13.3e %-13.3e %-13.3e\n", n,
                wf.condLeft, wf.condRight, condK, errW, errP);
    std::fflush(stdout);
  }
  return 0;
}
