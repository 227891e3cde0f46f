#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "linalg/blas.hpp"

namespace shhpass::linalg {

Matrix::Matrix(std::size_t r, std::size_t c, double fill)
    : rows_(r), cols_(c), data_(r * c, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zeros(std::size_t r, std::size_t c) { return Matrix(r, c); }


Matrix Matrix::diag(const std::vector<double>& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::symplecticJ(std::size_t n) {
  Matrix j(2 * n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    j(i, n + i) = 1.0;
    j(n + i, i) = -1.0;
  }
  return j;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

Matrix Matrix::block(std::size_t i, std::size_t j, std::size_t p,
                     std::size_t q) const {
  if (i + p > rows_ || j + q > cols_)
    throw std::invalid_argument("Matrix::block: out of range");
  Matrix b(p, q);
  for (std::size_t r = 0; r < p; ++r)
    for (std::size_t c = 0; c < q; ++c) b(r, c) = (*this)(i + r, j + c);
  return b;
}

void Matrix::setBlock(std::size_t i, std::size_t j, const Matrix& b) {
  if (i + b.rows() > rows_ || j + b.cols() > cols_)
    throw std::invalid_argument("Matrix::setBlock: out of range");
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) (*this)(i + r, j + c) = b(r, c);
}

Matrix Matrix::col(std::size_t j) const { return block(0, j, rows_, 1); }
Matrix Matrix::row(std::size_t i) const { return block(i, 0, 1, cols_); }

Matrix& Matrix::operator+=(const Matrix& o) {
  if (rows_ != o.rows_ || cols_ != o.cols_)
    throw std::invalid_argument("Matrix+: shape mismatch");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += o.data_[k];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  if (rows_ != o.rows_ || cols_ != o.cols_)
    throw std::invalid_argument("Matrix-: shape mismatch");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= o.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("Matrix*: inner dimension mismatch");
  // Routed through the dispatching gemm so every product in the library
  // (including this operator) rides the blocked BLAS-3 kernel when large.
  Matrix c(a.rows(), b.cols());
  gemm(1.0, a, false, b, false, 0.0, c);
  return c;
}

double Matrix::normFrobenius() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::maxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::trace() const {
  if (!isSquare()) throw std::invalid_argument("Matrix::trace: not square");
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

bool Matrix::approxEqual(const Matrix& o, double tol) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) return false;
  for (std::size_t k = 0; k < data_.size(); ++k)
    if (std::abs(data_[k] - o.data_[k]) > tol) return false;
  return true;
}

bool Matrix::isSymmetric(double tol) const {
  if (!isSquare()) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
  return true;
}

bool Matrix::isSkewSymmetric(double tol) const {
  if (!isSquare()) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i; j < cols_; ++j)
      if (std::abs((*this)(i, j) + (*this)(j, i)) > tol) return false;
  return true;
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.rows() != b.rows())
    throw std::invalid_argument("hcat: row count mismatch");
  Matrix c(a.rows(), a.cols() + b.cols());
  c.setBlock(0, 0, a);
  c.setBlock(0, a.cols(), b);
  return c;
}

Matrix vcat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.cols() != b.cols())
    throw std::invalid_argument("vcat: column count mismatch");
  Matrix c(a.rows() + b.rows(), a.cols());
  c.setBlock(0, 0, a);
  c.setBlock(a.rows(), 0, b);
  return c;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << std::setw(12) << std::setprecision(5) << m(i, j)
         << (j + 1 < m.cols() ? " " : "");
    os << (i + 1 < m.rows() ? "\n" : "]\n");
  }
  return os;
}

}  // namespace shhpass::linalg
