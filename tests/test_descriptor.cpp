// Tests for the DescriptorSystem type: validation, transfer evaluation,
// adjoint, parallel sum, regularity and stability queries.
#include <gtest/gtest.h>

#include <cmath>

#include "ds/descriptor.hpp"
#include "test_support.hpp"

namespace shhpass::ds {
namespace {

using linalg::Matrix;
using testing::expectMatrixNear;
using testing::pencilSystem;
using testing::randomMatrix;

// G(s) = 1/(s+1) as a (regular-E) descriptor system.
DescriptorSystem firstOrder() {
  DescriptorSystem s;
  s.e = Matrix{{1.0}};
  s.a = Matrix{{-1.0}};
  s.b = Matrix{{1.0}};
  s.c = Matrix{{1.0}};
  s.d = Matrix{{0.0}};
  return s;
}

// G(s) = s (a pure differentiator): E = [0 1; 0 0], A = I, b = e2, c = -e1.
// c (sE - A)^{-1} b with (sN - I)^{-1} = -(I + sN): G = -c.b - s c N b = s.
DescriptorSystem differentiator() {
  DescriptorSystem s;
  s.e = Matrix{{0.0, 1.0}, {0.0, 0.0}};
  s.a = Matrix::identity(2);
  s.b = Matrix{{0.0}, {1.0}};
  s.c = Matrix{{-1.0, 0.0}};
  s.d = Matrix{{0.0}};
  return s;
}

TEST(Descriptor, ValidateAcceptsConsistent) {
  EXPECT_NO_THROW(firstOrder().validate());
  EXPECT_EQ(firstOrder().order(), 1u);
  EXPECT_TRUE(firstOrder().isSquareSystem());
}

TEST(Descriptor, ValidateRejectsBadShapes) {
  DescriptorSystem s = firstOrder();
  s.b = Matrix(2, 1);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = firstOrder();
  s.d = Matrix(2, 2);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = firstOrder();
  s.e = Matrix(2, 2);
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Descriptor, EvalTransferFirstOrder) {
  // G(j) = 1/(1+j) = (1-j)/2.
  TransferValue g = evalTransfer(firstOrder(), 0.0, 1.0);
  EXPECT_NEAR(g.re(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(g.im(0, 0), -0.5, 1e-12);
}

TEST(Descriptor, EvalTransferDifferentiator) {
  // G(s) = s at s = 2 + 3j.
  TransferValue g = evalTransfer(differentiator(), 2.0, 3.0);
  EXPECT_NEAR(g.re(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(g.im(0, 0), 3.0, 1e-12);
}

TEST(Descriptor, EvalTransferAtPoleThrows) {
  EXPECT_THROW(evalTransfer(firstOrder(), -1.0, 0.0), std::runtime_error);
}

TEST(Descriptor, AdjointFlipsFrequencyAndTransposes) {
  // G~(s) = G(-s)^T: for the first-order system, G~(j) = 1/(1-j).
  DescriptorSystem adj = adjoint(firstOrder());
  TransferValue g = evalTransfer(adj, 0.0, 1.0);
  EXPECT_NEAR(g.re(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(g.im(0, 0), 0.5, 1e-12);
}

TEST(Descriptor, AdjointOfMimoMatchesPointwise) {
  DescriptorSystem sys;
  const std::size_t n = 5;
  sys.e = Matrix::identity(n);
  sys.a = testing::randomStable(n, 501);
  sys.b = randomMatrix(n, 2, 502);
  sys.c = randomMatrix(2, n, 503);
  sys.d = randomMatrix(2, 2, 504);
  DescriptorSystem adj = adjoint(sys);
  const double w = 0.7;
  TransferValue gAdj = evalTransfer(adj, 0.3, w);
  TransferValue gNeg = evalTransfer(sys, -0.3, -w);
  expectMatrixNear(gAdj.re, gNeg.re.transposed(), 1e-10);
  expectMatrixNear(gAdj.im, gNeg.im.transposed(), 1e-10);
}

TEST(Descriptor, AddIsPointwiseSum) {
  DescriptorSystem g1 = firstOrder();
  DescriptorSystem g2 = differentiator();
  DescriptorSystem sum = add(g1, g2);
  EXPECT_EQ(sum.order(), 3u);
  TransferValue gs = evalTransfer(sum, 0.5, 2.0);
  TransferValue ga = evalTransfer(g1, 0.5, 2.0);
  TransferValue gb = evalTransfer(g2, 0.5, 2.0);
  expectMatrixNear(gs.re, ga.re + gb.re, 1e-11);
  expectMatrixNear(gs.im, ga.im + gb.im, 1e-11);
}

TEST(Descriptor, AddRejectsPortMismatch) {
  DescriptorSystem g1 = firstOrder();
  DescriptorSystem g2 = firstOrder();
  g2.b = Matrix(1, 2);
  g2.d = Matrix(1, 2);
  EXPECT_THROW(add(g1, g2), std::invalid_argument);
}

TEST(Descriptor, SumWithAdjointIsHermitianOnAxis) {
  // Phi(jw) = G(jw) + G(jw)^* is Hermitian: real part symmetric, imaginary
  // part skew — the structural fact the whole paper builds on.
  DescriptorSystem sys;
  const std::size_t n = 4;
  sys.e = Matrix::identity(n);
  sys.a = testing::randomStable(n, 505);
  sys.b = randomMatrix(n, 2, 506);
  sys.c = randomMatrix(2, n, 507);
  sys.d = randomMatrix(2, 2, 508);
  DescriptorSystem phi = add(sys, adjoint(sys));
  TransferValue p = evalTransfer(phi, 0.0, 1.3);
  EXPECT_TRUE(p.re.isSymmetric(1e-10));
  EXPECT_TRUE(p.im.isSkewSymmetric(1e-10));
}

TEST(Descriptor, RegularityQueries) {
  EXPECT_TRUE(isRegular(firstOrder()));
  EXPECT_TRUE(isRegular(differentiator()));
  DescriptorSystem sing = firstOrder();
  sing.e = Matrix{{0.0}};
  sing.a = Matrix{{0.0}};
  EXPECT_FALSE(isRegular(sing));
}

TEST(Descriptor, RegularityDetection) {
  const Matrix e = Matrix::diag({1.0, 0.0});
  EXPECT_TRUE(isRegular(pencilSystem(e, Matrix::identity(2))));
  // Shared kernel direction makes the pencil singular.
  EXPECT_FALSE(isRegular(pencilSystem(e, Matrix::diag({1.0, 0.0}))));
  const Matrix zero = Matrix::zeros(2, 2);
  EXPECT_FALSE(isRegular(pencilSystem(zero, zero)));
}

TEST(Descriptor, RegularWithSingularA) {
  // A = diag(0, -1) is singular, yet det(A - sE) = s (s + 1) is not
  // identically zero: the screen reads structure, not a shifted LU.
  const DescriptorSystem g =
      pencilSystem(Matrix::identity(2), Matrix::diag({0.0, -1.0}));
  EXPECT_TRUE(isRegular(g));
  // The eigenvalue 0 is not strictly stable.
  EXPECT_FALSE(hasStableFiniteModes(g));
}

TEST(Descriptor, StableFiniteModes) {
  EXPECT_TRUE(hasStableFiniteModes(firstOrder()));
  // Differentiator has no finite modes at all: vacuously stable.
  EXPECT_TRUE(hasStableFiniteModes(differentiator()));
  DescriptorSystem unstable = firstOrder();
  unstable.a = Matrix{{1.0}};
  EXPECT_FALSE(hasStableFiniteModes(unstable));
}

TEST(Descriptor, PopovProbe) {
  // For G(s) = 1/(s+1): lambda_min(G+G^*) = 2 Re G(jw) = 2/(1+w^2).
  EXPECT_NEAR(popovMinEigenvalueDs(firstOrder(), 1.0), 1.0, 1e-10);
  EXPECT_NEAR(popovMinEigenvalueDs(firstOrder(), 0.0), 2.0, 1e-10);
}

}  // namespace
}  // namespace shhpass::ds
