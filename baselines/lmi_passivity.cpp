#include "baselines/lmi_passivity.hpp"

#include <stdexcept>

#include "ds/balance.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"

namespace shhpass::lmi {

using linalg::Matrix;

LmiPassivityResult testPassivityLmi(const ds::DescriptorSystem& gIn,
                                    const SdpOptions& opt) {
  gIn.validate();
  if (!gIn.isSquareSystem())
    throw std::invalid_argument("testPassivityLmi: system must be square");
  // Balancing is an exact r.s.e. and leaves LMI feasibility invariant
  // (substitute X -> scaled X); it keeps the barrier well conditioned.
  ds::DescriptorSystem g = ds::balanceDescriptor(gIn).sys;

  // Epsilon-regularize the feedthrough: ideal (lossless-at-infinity) ports
  // make the LMI only boundary-feasible (t* = 0 exactly), which interior
  // point methods approach at the barrier rate. Testing G + eps*I instead
  // turns a passive G into a strictly feasible problem, reached quickly and
  // certified by early exit; a non-passive G keeps a margin below -2*eps
  // and is still rejected.
  const double epsReg =
      1e-5 * (1.0 + g.c.maxAbs() + g.b.maxAbs() + g.d.maxAbs());
  for (std::size_t i = 0; i < g.d.rows(); ++i) g.d(i, i) += epsReg;

  const std::size_t n = g.order();
  const std::size_t m = g.numInputs();

  // --- Eliminate the symmetry constraint E^T X = X^T E. ---------------
  // skew(E^T X) = 0 gives n(n-1)/2 linear equations in the n^2 entries of
  // X (column-major vec): for i < j,
  //   sum_k E(k,i) X(k,j) - E(k,j) X(k,i) = 0.
  const std::size_t nEq = n * (n - 1) / 2;
  Matrix constraint(nEq, n * n);
  {
    std::size_t row = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j, ++row)
        for (std::size_t k = 0; k < n; ++k) {
          constraint(row, j * n + k) += g.e(k, i);
          constraint(row, i * n + k) -= g.e(k, j);
        }
  }
  LmiPassivityResult res;
  Matrix xBasis = Matrix::identity(n * n);
  if (nEq != 0) {
    linalg::SVD csvd(constraint);
    csvd.rank(-1.0, &res.rankReport);
    xBasis = csvd.nullspace();
  }
  const std::size_t p = xBasis.cols();

  // --- Assemble the two LMI blocks over the reduced variables. --------
  // Block 1 (size n+m): [-A^T X - X^T A, -X^T B + C^T; -B^T X + C, D+D^T].
  // Block 2 (size r): R^T (E^T X) R with R = orth(Im E^T); symmetric by
  // construction of the subspace, and can be strictly definite there.
  linalg::SVD etsvd(g.e.transposed());
  etsvd.rank(-1.0, &res.rankReport);
  Matrix r = etsvd.range();
  const std::size_t rr = r.cols();

  std::vector<SdpBlock> blocks(2);
  blocks[0].a0 = Matrix(n + m, n + m);
  blocks[0].a0.setBlock(0, n, g.c.transposed());
  blocks[0].a0.setBlock(n, 0, g.c);
  blocks[0].a0.setBlock(n, n, g.d + g.d.transposed());
  blocks[1].a0 = Matrix(rr, rr);

  blocks[0].basis.reserve(p);
  blocks[1].basis.reserve(p);
  for (std::size_t k = 0; k < p; ++k) {
    Matrix x(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) x(i, j) = xBasis(j * n + i, k);
    Matrix atx = linalg::atb(g.a, x);   // A^T X
    Matrix xtb = linalg::atb(x, g.b);   // X^T B
    Matrix f(n + m, n + m);
    f.setBlock(0, 0, -1.0 * (atx + atx.transposed()));
    f.setBlock(0, n, -1.0 * xtb);
    f.setBlock(n, 0, -1.0 * xtb.transposed());
    blocks[0].basis.push_back(std::move(f));
    Matrix etx = linalg::atb(g.e, x);   // E^T X (symmetric on the subspace)
    Matrix gblk = linalg::multiply(linalg::atb(r, etx), false, r, false);
    linalg::symmetrize(gblk);
    blocks[1].basis.push_back(std::move(gblk));
  }

  SdpOptions optAdj = opt;
  if (optAdj.earlyExitMargin < 0.0) optAdj.earlyExitMargin = 0.25 * epsReg;
  SdpResult sdp = solveSdpFeasibility(blocks, optAdj);
  res.passive = sdp.feasible;
  res.tStar = sdp.tStar;
  res.variables = p;
  res.newtonIterations = sdp.newtonIterations;
  return res;
}

}  // namespace shhpass::lmi
