// Unit tests for Householder QR and the orthonormal completion used by the
// deflation pipeline.
#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "test_support.hpp"

namespace shhpass::linalg {
namespace {

using testing::expectMatrixNear;
using testing::expectOrthonormalColumns;
using testing::randomMatrix;

TEST(QRTest, ReconstructsSquare) {
  Matrix a = randomMatrix(6, 6, 51);
  QR qr(a);
  expectMatrixNear(qr.thinQ() * qr.r(), a, 1e-12);
  expectOrthonormalColumns(qr.thinQ());
}

TEST(QRTest, ReconstructsTallAndWide) {
  Matrix tall = randomMatrix(8, 3, 52);
  QR qt(tall);
  expectMatrixNear(qt.thinQ() * qt.r(), tall, 1e-12);
  expectOrthonormalColumns(qt.thinQ());

  Matrix wide = randomMatrix(3, 8, 53);
  QR qw(wide);
  expectMatrixNear(qw.thinQ() * qw.r(), wide, 1e-12);
}

TEST(QRTest, FullQIsOrthogonal) {
  Matrix a = randomMatrix(5, 2, 54);
  Matrix q = QR(a).fullQ();
  EXPECT_EQ(q.rows(), 5u);
  EXPECT_EQ(q.cols(), 5u);
  expectOrthonormalColumns(q);
}

TEST(QRTest, RUpperTriangular) {
  Matrix a = randomMatrix(5, 5, 55);
  Matrix r = QR(a).r();
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < i && j < r.cols(); ++j)
      EXPECT_EQ(r(i, j), 0.0);
}

TEST(QRTest, ApplyQAndQtAreInverses) {
  Matrix a = randomMatrix(6, 4, 62);
  QR qr(a);
  Matrix b = randomMatrix(6, 3, 63);
  expectMatrixNear(qr.applyQ(qr.applyQt(b)), b, 1e-12);
  expectMatrixNear(qr.applyQt(qr.applyQ(b)), b, 1e-12);
}

TEST(OrthonormalComplement, CompletesBasis) {
  Matrix a = randomMatrix(6, 2, 65);
  Matrix v = QR(a).thinQ();
  Matrix w = orthonormalComplement(v);
  EXPECT_EQ(w.cols(), 4u);
  Matrix full = hcat(v, w);
  expectOrthonormalColumns(full);
}

TEST(OrthonormalComplement, FullBasisGivesEmpty) {
  Matrix v = QR(randomMatrix(4, 4, 66)).thinQ();
  EXPECT_EQ(orthonormalComplement(v).cols(), 0u);
}

TEST(OrthonormalComplement, EmptyGivesIdentity) {
  expectMatrixNear(orthonormalComplement(Matrix(3, 0)), Matrix::identity(3),
                   0.0);
}

}  // namespace
}  // namespace shhpass::linalg
