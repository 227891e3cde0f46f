// The paper's "sidetrack": the SHH pipeline conveniently decouples the
// stable proper part of a passive descriptor system along the way. This
// example runs the stage-pipeline engine directly, prints each Fig.-1
// stage from the run's report, then reads the
// extracted proper part off the pipeline state and verifies pointwise that
//     Phi(jw) = Hp(jw) + Hp(jw)^*
// where Hp is the extracted regular (nonsingular-E) system — i.e. the
// infinite-frequency structure has been cleanly split off by orthogonal
// transformations. The extracted Hp is a drop-in proper model for, e.g.,
// passivity enforcement or model order reduction (Sec. 4 remarks).
//
//   $ ./proper_part_extraction
#include <cstdio>

#include "api/shhpass.hpp"
#include "linalg/schur.hpp"

int main() {
  using namespace shhpass;
  using linalg::Matrix;

  circuits::LadderOptions opt;
  opt.sections = 5;
  opt.capAtPort = false;  // impulsive at the port: M1 = l
  ds::DescriptorSystem g = circuits::makeRlcLadder(opt);
  std::printf("original descriptor order: %zu (singular E)\n", g.order());

  // Drive the Fig.-1 stage pipeline directly, then list its stages.
  api::PipelineState state;
  state.input = &g;
  api::Status status = api::runPipeline(state);
  for (const api::StageTrace& t : state.report.stages)
    std::printf("  stage %-20s %-8s (%.4f s)\n", t.name.c_str(),
                api::errorCodeName(t.status.code()), t.seconds);
  if (!status.ok()) {
    std::printf("unexpected: %s\n", status.toString().c_str());
    return 1;
  }

  const core::ProperPartResult& pp = state.properPart;
  std::printf("extracted stable proper part: order %zu (regular E = I)\n",
              pp.lambda.rows());
  std::printf("poles of the proper part:\n");
  for (const auto& l : linalg::eigenvalues(pp.lambda))
    std::printf("   %12.5e %+12.5ei\n", l.real(), l.imag());

  // Pointwise verification: Phi(jw) = 2 * Herm(Hp(jw)). The proper part
  // lives in the BALANCED frequency coordinates, so compare against the
  // balanced system the pipeline actually processed.
  ds::DescriptorSystem hp;
  hp.e = Matrix::identity(pp.lambda.rows());
  hp.a = pp.lambda;
  hp.b = pp.b1;
  hp.c = pp.c1;
  hp.d = pp.dHalf;
  const ds::DescriptorSystem& gb = state.balanced.sys;
  ds::DescriptorSystem phiRef = ds::add(gb, ds::adjoint(gb));
  std::printf("\n%-12s %-16s %-16s %-10s\n", "omega", "Phi(jw)",
              "Hp+Hp* (jw)", "rel.err");
  double worst = 0.0;
  for (double w : {0.01, 0.1, 1.0, 10.0, 100.0}) {
    ds::TransferValue hv = ds::evalTransfer(hp, 0.0, w);
    ds::TransferValue pv = ds::evalTransfer(phiRef, 0.0, w);
    const double sum = hv.re(0, 0) * 2.0;
    const double ref = pv.re(0, 0);
    const double err = std::abs(sum - ref) / std::max(1.0, std::abs(ref));
    worst = std::max(worst, err);
    std::printf("%-12.3g %-16.8e %-16.8e %-10.2e\n", w, ref, sum, err);
  }
  std::printf("\nworst relative error: %.2e  (%s)\n", worst,
              worst < 1e-6 ? "OK" : "TOO LARGE");
  return worst < 1e-6 ? 0 : 1;
}
