#include "core/reduction.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "api/pipeline.hpp"
#include "control/lyapunov.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "linalg/symmetric_eig.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

// Symmetric PSD square root factor: M = F^T F with F = sqrt(S) V^T from the
// eigen-decomposition, keeping the (at most maxRank) largest eigenvalues
// above tol, in eigenvalue order.
//
// The callers' cutoffs (1e-14 * Gramian scale, 1e-12 * M1 scale) are
// EXEMPT from the shared rank policy on purpose: they threshold
// *eigenvalues* of PSD matrices that are themselves squared quantities
// (Gramians ~ factor^2, M1 from a product of two solves), so the policy's
// singular-value default would be quadratically too tight and resurrect
// noise states. Factor-rank decisions here are a reduction knob, not a
// pencil rank certificate, and stay out of RankReport.
Matrix psdFactor(const Matrix& m, double tol,
                 std::size_t maxRank = static_cast<std::size_t>(-1)) {
  linalg::SymmetricEig eig(m);
  const auto& w = eig.eigenvalues();
  std::vector<std::size_t> keep;
  for (std::size_t k = 0; k < w.size(); ++k)
    if (w[k] > tol) keep.push_back(k);
  if (keep.size() > maxRank) {
    std::stable_sort(keep.begin(), keep.end(),
                     [&w](std::size_t x, std::size_t y) { return w[x] > w[y]; });
    keep.resize(maxRank);
    std::sort(keep.begin(), keep.end());
  }
  Matrix f(keep.size(), m.rows());
  for (std::size_t row = 0; row < keep.size(); ++row) {
    const double s = std::sqrt(w[keep[row]]);
    for (std::size_t i = 0; i < m.rows(); ++i)
      f(row, i) = s * eig.eigenvectors()(i, keep[row]);
  }
  return f;
}

}  // namespace

ReducedModel reduceDescriptor(const ds::DescriptorSystem& g,
                              std::size_t properOrder, double hsvTol,
                              double rankTol) {
  ReducedModel out;
  api::PipelineState state;
  state.input = &g;
  state.options.rankTol = rankTol;
  api::throwIfOperationalError(api::runPipeline(state));
  // Only a run that reached the pr-test certified what the reduction
  // reassembles: a stable proper part and a PSD M1. A proper part that
  // fails positive realness is still reduced faithfully.
  const FailureStage failure = state.report.failure;
  if (failure != FailureStage::None &&
      failure != FailureStage::ProperPartNotPr)
    return out;
  const ProperPartResult& pp = state.properPart;

  const std::size_t np = pp.lambda.rows();
  const std::size_t m = g.numInputs();

  // Square-root balanced truncation of (Lambda, B1, C1).
  Matrix p = control::solveLyapunov(pp.lambda, linalg::abt(pp.b1, pp.b1));
  Matrix q = control::solveLyapunov(pp.lambda.transposed(),
                                    linalg::atb(pp.c1, pp.c1));
  const double gramTol =
      1e-14 * std::max({1.0, p.maxAbs(), q.maxAbs()});
  Matrix lp = psdFactor(p, gramTol).transposed();  // P ~ lp lp^T
  Matrix lq = psdFactor(q, gramTol).transposed();  // Q ~ lq lq^T
  linalg::SVD bsvd(linalg::atb(lq, lp));
  out.hankel = bsvd.singularValues();
  const double hsvMax = out.hankel.empty() ? 0.0 : out.hankel.front();
  std::size_t r = std::min<std::size_t>(properOrder, out.hankel.size());
  while (r > 0 && out.hankel[r - 1] < hsvTol * hsvMax) --r;
  out.properOrder = r;

  // Projection: Tr = lp V_r S_r^{-1/2}, Lr = S_r^{-1/2} U_r^T lq^T.
  Matrix tr(np, r), lr(r, np);
  for (std::size_t k = 0; k < r; ++k) {
    const double is = 1.0 / std::sqrt(out.hankel[k]);
    for (std::size_t i = 0; i < np; ++i) {
      double tv = 0.0, lv = 0.0;
      for (std::size_t j = 0; j < lp.cols(); ++j)
        tv += lp(i, j) * bsvd.v()(j, k);
      for (std::size_t j = 0; j < lq.cols(); ++j)
        lv += lq(i, j) * bsvd.u()(j, k);
      tr(i, k) = tv * is;
      lr(k, i) = lv * is;
    }
  }
  Matrix ar = lr * pp.lambda * tr;
  Matrix br = lr * pp.b1;
  Matrix cr = pp.c1 * tr;

  // Impulsive part: the report's M1 is already in ORIGINAL frequency
  // units (M1_bal / tau).
  Matrix m1 = state.report.m1;
  linalg::symmetrize(m1);
  // The cut is relative to M1 alone (an absolute floor below 1 dropped
  // the moment of a ladder with a 1e-13 H port inductance), and the run's
  // own grade-2 chain count bounds the rank, so noise in an M1 with no
  // chains never becomes an impulsive state.
  Matrix f = psdFactor(m1, 1e-12 * m1.maxAbs(),
                       state.report.impulsiveChains);
  const std::size_t pRank = f.rows();
  out.impulsiveRank = pRank;

  // Assemble the reduced DS in ORIGINAL frequency units:
  //   proper states: E = I / tau (undo s -> tau*s), A = ar;
  //   impulsive states (2*pRank): E = [0 I; 0 0], A = I,
  //   b = [0; F], c = [-F^T, 0]  =>  contribution s * F^T F = s * M1.
  const std::size_t nTot = r + 2 * pRank;
  ds::DescriptorSystem red;
  red.e = Matrix(nTot, nTot);
  red.a = Matrix(nTot, nTot);
  red.b = Matrix(nTot, m);
  red.c = Matrix(m, nTot);
  // Feedthrough: the pipeline's dHalf = (D + D^T + M0 + M0^T)/2 carries
  // the Hermitian part of the original D *and* of the constant Markov
  // parameter M0 (the infinite modes' DC contribution, Eq. 3). Adding back
  // the skew part of D yields D + Herm(M0): exact for reciprocal networks
  // (where M0 is symmetric), and exact in the Hermitian part — the part
  // passivity and port energy see — in general.
  red.d = pp.dHalf + 0.5 * (g.d - g.d.transposed());
  for (std::size_t i = 0; i < r; ++i)
    red.e(i, i) = 1.0 / state.balanced.freqScale;
  red.a.setBlock(0, 0, ar);
  red.b.setBlock(0, 0, br);
  red.c.setBlock(0, 0, cr);
  for (std::size_t i = 0; i < pRank; ++i) {
    red.e(r + i, r + pRank + i) = 1.0;
    red.a(r + i, r + i) = 1.0;
    red.a(r + pRank + i, r + pRank + i) = 1.0;
  }
  if (pRank > 0) {
    red.b.setBlock(r + pRank, 0, f);
    red.c.setBlock(0, r, -1.0 * f.transposed());
  }
  out.sys = red;
  out.ok = true;
  return out;
}

}  // namespace shhpass::core
