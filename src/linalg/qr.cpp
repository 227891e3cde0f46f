#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/householder.hpp"

namespace shhpass::linalg {

QR::QR(const Matrix& a)
    : qr_(a),
      tau_(std::min(a.rows(), a.cols()), 0.0),
      blocked_(a.rows() >= kQrWyMinRows) {
  if (blocked_)
    factorBlocked();
  else
    factorUnblocked();
}

void QR::generateReflector(std::size_t k) {
  const std::size_t m = qr_.rows();
  double scale = 0.0;
  for (std::size_t i = k; i < m; ++i)
    scale = std::max(scale, std::abs(qr_(i, k)));
  if (scale == 0.0) {
    tau_[k] = 0.0;
    return;
  }
  double sigma = 0.0;
  for (std::size_t i = k; i < m; ++i) {
    const double v = qr_(i, k) / scale;
    sigma += v * v;
  }
  double alpha = scale * std::sqrt(sigma);
  if (qr_(k, k) > 0) alpha = -alpha;
  const double v0 = qr_(k, k) - alpha;
  // Reflector v normalized so v[k] = 1; tau = -v0/alpha gives H = I - tau vv^T.
  tau_[k] = -v0 / alpha;
  for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= v0;
  qr_(k, k) = alpha;
}

void QR::factorUnblocked() {
  const std::size_t m = qr_.rows(), n = qr_.cols();
  const std::size_t kmax = std::min(m, n);
  for (std::size_t k = 0; k < kmax; ++k) {
    generateReflector(k);
    if (tau_[k] == 0.0) continue;
    // Apply H to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

Matrix QR::panelV(std::size_t k0, std::size_t kb) const {
  const std::size_t m = qr_.rows();
  Matrix v(m - k0, kb);
  for (std::size_t c = 0; c < kb; ++c) {
    v(c, c) = 1.0;
    for (std::size_t r = c + 1; r < m - k0; ++r)
      v(r, c) = qr_(k0 + r, k0 + c);
  }
  return v;
}

void QR::factorBlocked() {
  const std::size_t m = qr_.rows(), n = qr_.cols();
  const std::size_t kmax = std::min(m, n);
  for (std::size_t k0 = 0; k0 < kmax; k0 += kQrBlock) {
    const std::size_t kb = std::min(kQrBlock, kmax - k0);
    // Rank-1 factorization of the panel (trailing updates restricted to
    // the panel's own columns).
    for (std::size_t k = k0; k < k0 + kb; ++k) {
      generateReflector(k);
      if (tau_[k] == 0.0) continue;
      for (std::size_t j = k + 1; j < k0 + kb; ++j) {
        double s = qr_(k, j);
        for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
        s *= tau_[k];
        qr_(k, j) -= s;
        for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
      }
    }
    // Aggregate the panel into compact-WY form and update the trailing
    // columns with one block application (three gemms).
    const Matrix v = panelV(k0, kb);
    Matrix t = buildCompactWyT(
        v, std::vector<double>(tau_.begin() + k0, tau_.begin() + k0 + kb));
    if (k0 + kb < n) {
      Matrix c = qr_.block(k0, k0 + kb, m - k0, n - k0 - kb);
      applyBlockReflectorLeft(v, t, /*transpose=*/true, c);
      qr_.setBlock(k0, k0 + kb, c);
    }
    tFactors_.push_back(std::move(t));
  }
}

Matrix QR::applyQt(const Matrix& b) const {
  const std::size_t m = qr_.rows();
  if (b.rows() != m) throw std::invalid_argument("QR::applyQt: shape mismatch");
  Matrix x = b;
  if (blocked_) {
    // Q^T = (panel_last)^T ... (panel_0)^T applied in ascending order;
    // each panel touches rows k0.. only.
    for (std::size_t p = 0; p < tFactors_.size(); ++p) {
      const std::size_t k0 = p * kQrBlock;
      const std::size_t kb = tFactors_[p].rows();
      Matrix sub = x.block(k0, 0, m - k0, x.cols());
      applyBlockReflectorLeft(panelV(k0, kb), tFactors_[p],
                              /*transpose=*/true, sub);
      x.setBlock(k0, 0, sub);
    }
    return x;
  }
  for (std::size_t k = 0; k < tau_.size(); ++k) {
    if (tau_[k] == 0.0) continue;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      double s = x(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * x(i, j);
      s *= tau_[k];
      x(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) x(i, j) -= s * qr_(i, k);
    }
  }
  return x;
}

Matrix QR::applyQ(const Matrix& b) const {
  const std::size_t m = qr_.rows();
  if (b.rows() != m) throw std::invalid_argument("QR::applyQ: shape mismatch");
  Matrix x = b;
  if (blocked_) {
    // Q = panel_0 panel_1 ... applied in descending order.
    for (std::size_t p = tFactors_.size(); p-- > 0;) {
      const std::size_t k0 = p * kQrBlock;
      const std::size_t kb = tFactors_[p].rows();
      Matrix sub = x.block(k0, 0, m - k0, x.cols());
      applyBlockReflectorLeft(panelV(k0, kb), tFactors_[p],
                              /*transpose=*/false, sub);
      x.setBlock(k0, 0, sub);
    }
    return x;
  }
  for (std::size_t kk = tau_.size(); kk-- > 0;) {
    const std::size_t k = kk;
    if (tau_[k] == 0.0) continue;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      double s = x(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * x(i, j);
      s *= tau_[k];
      x(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) x(i, j) -= s * qr_(i, k);
    }
  }
  return x;
}

Matrix QR::thinQ() const {
  const std::size_t m = qr_.rows();
  const std::size_t k = std::min(m, qr_.cols());
  Matrix e(m, k);
  for (std::size_t i = 0; i < k; ++i) e(i, i) = 1.0;
  return applyQ(e);
}

Matrix QR::fullQ() const { return applyQ(Matrix::identity(qr_.rows())); }

Matrix QR::r() const {
  const std::size_t k = std::min(qr_.rows(), qr_.cols());
  Matrix rr(k, qr_.cols());
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < qr_.cols(); ++j) rr(i, j) = qr_(i, j);
  return rr;
}

Matrix orthonormalComplement(const Matrix& v) {
  const std::size_t m = v.rows();
  const std::size_t k = v.cols();
  if (k > m)
    throw std::invalid_argument("orthonormalComplement: more cols than rows");
  if (k == 0) return Matrix::identity(m);
  Matrix q = QR(v).fullQ();
  return q.block(0, k, m, m - k);
}

}  // namespace shhpass::linalg
