// Dense real matrix type used throughout shhpass.
//
// Row-major storage of doubles. This is the foundation for the from-scratch
// linear-algebra substrate (LU/QR/SVD/Schur/QZ) that the SHH passivity test
// builds on; no external BLAS/LAPACK is used.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "obs/alloc.hpp"

namespace shhpass::linalg {

/// Dense real (double) matrix, row-major.
///
/// Sizes are ordinary `std::size_t`; an empty matrix has rows()==cols()==0.
/// All arithmetic throws `std::invalid_argument` on dimension mismatch.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// r x c matrix with every entry set to `fill`.
  Matrix(std::size_t r, std::size_t c, double fill = 0.0);

  /// Build from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);
  /// r x c all-zero matrix.
  static Matrix zeros(std::size_t r, std::size_t c);
  /// Square matrix with `d` on the diagonal.
  static Matrix diag(const std::vector<double>& d);
  /// The 2n x 2n symplectic unit J = [0 I; -I 0].
  static Matrix symplecticJ(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool isSquare() const { return rows_ == cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Raw row-major storage (size rows()*cols()).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Matrix transposed() const;

  /// Copy of the p x q block with top-left corner (i, j).
  Matrix block(std::size_t i, std::size_t j, std::size_t p,
               std::size_t q) const;
  /// Overwrite the block with top-left corner (i, j) by `b`.
  void setBlock(std::size_t i, std::size_t j, const Matrix& b);

  /// Copy of column j as an n x 1 matrix.
  Matrix col(std::size_t j) const;
  /// Copy of row i as a 1 x n matrix.
  Matrix row(std::size_t i) const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }
  friend Matrix operator-(Matrix a) { return a *= -1.0; }

  /// Matrix product (throws on inner-dimension mismatch).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Frobenius norm.
  double normFrobenius() const;
  /// Largest absolute entry (max norm); 0 for empty matrices.
  double maxAbs() const;
  /// Sum of diagonal entries (square only).
  double trace() const;

  /// Entrywise comparison: max |a_ij - b_ij| <= tol. Shapes must match.
  bool approxEqual(const Matrix& o, double tol) const;

  /// True iff ||A - A^T||_max <= tol (square only).
  bool isSymmetric(double tol = 0.0) const;
  /// True iff ||A + A^T||_max <= tol (square only).
  bool isSkewSymmetric(double tol = 0.0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// Storage goes through the obs counting allocator so per-stage peak
  /// bytes in AnalysisReport reflect the numeric working set.
  std::vector<double, obs::CountingAllocator<double>> data_;
};

/// Horizontal concatenation [a b] (row counts must match; empty args allowed).
Matrix hcat(const Matrix& a, const Matrix& b);
/// Vertical concatenation [a; b] (column counts must match; empty args allowed).
Matrix vcat(const Matrix& a, const Matrix& b);

/// Pretty-print with aligned columns (for debugging / examples).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace shhpass::linalg
