#include "ds/descriptor.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/symmetric_eig.hpp"

namespace shhpass::ds {

using linalg::Matrix;

void DescriptorSystem::validate() const {
  const std::size_t n = a.rows();
  if (!a.isSquare() || !e.isSquare() || e.rows() != n)
    throw std::invalid_argument("DescriptorSystem: E, A must be n x n");
  if (b.rows() != n)
    throw std::invalid_argument("DescriptorSystem: B row count != n");
  if (c.cols() != n)
    throw std::invalid_argument("DescriptorSystem: C column count != n");
  if (d.rows() != c.rows() || d.cols() != b.cols())
    throw std::invalid_argument("DescriptorSystem: D shape mismatch");
  const std::pair<const Matrix*, const char*> blocks[] = {
      {&e, "E"}, {&a, "A"}, {&b, "B"}, {&c, "C"}, {&d, "D"}};
  for (const auto& [m, name] : blocks) {
    const double* v = m->data();
    for (std::size_t k = 0; k < m->rows() * m->cols(); ++k)
      if (!std::isfinite(v[k]))
        throw std::invalid_argument(std::string("DescriptorSystem: ") + name +
                                    " has a NaN or infinite entry");
  }
}

TransferValue evalTransfer(const DescriptorSystem& sys, double sRe,
                           double sIm) {
  sys.validate();
  const std::size_t n = sys.order();
  TransferValue out{sys.d, Matrix(sys.numOutputs(), sys.numInputs())};
  if (n == 0) return out;
  // (sE - A) (xr + j xi) = B  <=>  [Re -Im; Im Re] [xr; xi] = [B; 0]
  // with Re = sRe*E - A, Im = sIm*E.
  Matrix reBlk = sRe * sys.e - sys.a;
  Matrix imBlk = sIm * sys.e;
  Matrix sysm(2 * n, 2 * n);
  sysm.setBlock(0, 0, reBlk);
  sysm.setBlock(n, n, reBlk);
  sysm.setBlock(0, n, -1.0 * imBlk);
  sysm.setBlock(n, 0, imBlk);
  Matrix rhs(2 * n, sys.numInputs());
  rhs.setBlock(0, 0, sys.b);
  linalg::LU lu(sysm);
  // Only an exact pivot collapse counts as a pole: the doubled system
  // mixes scales (w*E rows vs algebraic A rows), so any relative
  // min/max-pivot threshold rejects legitimate high-frequency points.
  Matrix x;
  try {
    x = lu.solve(rhs);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("evalTransfer: s is a pole of G(s)");
  }
  out.re += sys.c * x.block(0, 0, n, sys.numInputs());
  out.im = sys.c * x.block(n, 0, n, sys.numInputs());
  return out;
}

DescriptorSystem adjoint(const DescriptorSystem& sys) {
  sys.validate();
  DescriptorSystem adj;
  adj.e = sys.e.transposed();
  adj.a = -1.0 * sys.a.transposed();
  adj.b = -1.0 * sys.c.transposed();
  adj.c = sys.b.transposed();
  adj.d = sys.d.transposed();
  return adj;
}

DescriptorSystem add(const DescriptorSystem& g1, const DescriptorSystem& g2) {
  g1.validate();
  g2.validate();
  if (g1.numInputs() != g2.numInputs() ||
      g1.numOutputs() != g2.numOutputs())
    throw std::invalid_argument("add: port dimension mismatch");
  const std::size_t n1 = g1.order(), n2 = g2.order();
  DescriptorSystem s;
  s.e = Matrix(n1 + n2, n1 + n2);
  s.e.setBlock(0, 0, g1.e);
  s.e.setBlock(n1, n1, g2.e);
  s.a = Matrix(n1 + n2, n1 + n2);
  s.a.setBlock(0, 0, g1.a);
  s.a.setBlock(n1, n1, g2.a);
  s.b = linalg::vcat(g1.b, g2.b);
  s.c = linalg::hcat(g1.c, g2.c);
  s.d = g1.d + g2.d;
  return s;
}

double popovMinEigenvalueDs(const DescriptorSystem& sys, double omega) {
  const TransferValue g = evalTransfer(sys, 0.0, omega);
  return linalg::hermitianPartMinEigenvalue(g.re, g.im);
}

}  // namespace shhpass::ds
