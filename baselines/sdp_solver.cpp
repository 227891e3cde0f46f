#include "baselines/sdp_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/symmetric_eig.hpp"

namespace shhpass::lmi {

using linalg::Matrix;

namespace {

// S(x, t) for one block.
Matrix evalBlock(const SdpBlock& b, const std::vector<double>& x, double t) {
  Matrix s = b.a0;
  for (std::size_t k = 0; k < b.basis.size(); ++k) {
    if (x[k] == 0.0) continue;
    s += x[k] * b.basis[k];
  }
  for (std::size_t i = 0; i < s.rows(); ++i) s(i, i) -= t;
  return s;
}

double minEig(const Matrix& s) {
  linalg::SymmetricEig eig(s, /*wantVectors=*/false);
  return eig.eigenvalues().empty() ? 0.0 : eig.eigenvalues().front();
}

}  // namespace

SdpResult solveSdpFeasibility(const std::vector<SdpBlock>& blocks,
                              const SdpOptions& opt) {
  if (blocks.empty())
    throw std::invalid_argument("solveSdpFeasibility: no blocks");
  const std::size_t p = blocks.front().basis.size();
  for (const auto& b : blocks) {
    if (b.basis.size() != p)
      throw std::invalid_argument("solveSdpFeasibility: basis size mismatch");
    for (const auto& m : b.basis)
      if (m.rows() != b.a0.rows() || !m.isSquare())
        throw std::invalid_argument("solveSdpFeasibility: block shape");
  }

  SdpResult res;
  res.x.assign(p, 0.0);
  double scale = 1.0;
  for (const auto& b : blocks) scale = std::max(scale, b.a0.maxAbs());

  // Strictly feasible start: t below the smallest eigenvalue of any A0.
  double t = 0.0;
  for (const auto& b : blocks) t = std::min(t, minEig(b.a0));
  t -= 0.1 * scale + 1.0;

  const std::size_t dim = p + 1;  // variables (x, t)
  std::vector<Matrix> w(p);       // per-block W_k = S^{-1} A_k workspaces

  double mu = opt.muInitial * scale;
  while (mu > opt.muFinal * scale) {
    if (opt.earlyExitMargin >= 0.0 && t > opt.earlyExitMargin) break;
    for (int iter = 0; iter < opt.maxNewtonPerStage; ++iter) {
      // Assemble gradient and (negated) Hessian of
      //   phi(x, t) = t + mu * sum_b logdet(S_b(x) - t I).
      Matrix h(dim, dim);
      std::vector<double> grad(dim, 0.0);
      grad[p] = 1.0;
      bool singular = false;
      for (const auto& b : blocks) {
        Matrix s = evalBlock(b, res.x, t);
        linalg::Cholesky chol(s);
        if (!chol.success()) {
          singular = true;
          break;
        }
        const std::size_t nb = s.rows();
        Matrix sinv = chol.solve(Matrix::identity(nb));
        // W_k = S^{-1} A_k; W_t = -S^{-1}.
        for (std::size_t k = 0; k < p; ++k) w[k] = sinv * b.basis[k];
        // Gradient.
        for (std::size_t k = 0; k < p; ++k) grad[k] += mu * w[k].trace();
        grad[p] -= mu * sinv.trace();
        // Hessian of -phi (positive definite): H_kl = mu tr(W_k W_l).
        for (std::size_t k = 0; k < p; ++k) {
          for (std::size_t l = k; l < p; ++l) {
            double tr = 0.0;
            for (std::size_t i = 0; i < nb; ++i)
              for (std::size_t j = 0; j < nb; ++j)
                tr += w[k](i, j) * w[l](j, i);
            h(k, l) += mu * tr;
            if (l != k) h(l, k) = h(k, l);
          }
          // Cross terms with t: H_kt = -mu tr(S^{-1} A_k S^{-1}).
          double trc = 0.0;
          for (std::size_t i = 0; i < nb; ++i)
            for (std::size_t j = 0; j < nb; ++j)
              trc += w[k](i, j) * sinv(j, i);
          h(k, p) -= mu * trc;
          h(p, k) = h(k, p);
        }
        double tr2 = 0.0;
        for (std::size_t i = 0; i < nb; ++i)
          for (std::size_t j = 0; j < nb; ++j)
            tr2 += sinv(i, j) * sinv(j, i);
        h(p, p) += mu * tr2;
      }
      if (singular)
        throw std::runtime_error("solveSdpFeasibility: lost interiority");

      // Newton direction: H d = grad (maximization; H is -Hessian > 0).
      // Adaptive ridge keeps the solve well posed when mu is tiny and the
      // barrier Hessian underflows toward singularity.
      Matrix g(dim, 1);
      for (std::size_t k = 0; k < dim; ++k) g(k, 0) = grad[k];
      Matrix d;
      double ridge = 1e-14 * (1.0 + h.maxAbs());
      bool solved = false;
      while (ridge < 1e12) {
        Matrix hr = h;
        for (std::size_t k = 0; k < dim; ++k) hr(k, k) += ridge;
        linalg::Cholesky ch(hr);
        if (ch.success()) {
          d = ch.solve(g);
          solved = true;
          break;
        }
        ridge *= 1e3;
      }
      if (!solved) break;

      double gdotd = 0.0;
      for (std::size_t k = 0; k < dim; ++k) gdotd += grad[k] * d(k, 0);
      if (gdotd <= 0.0) break;  // stationary (numerically)

      // Fraction-to-the-boundary step: the largest sigma keeping every
      // block S + sigma * DeltaS > 0 is -1 / lambda_min(S^{-1} DeltaS)
      // when that eigenvalue is negative; take 95% of it (capped at 1).
      double step = 1.0;
      for (const auto& b : blocks) {
        Matrix s = evalBlock(b, res.x, t);
        Matrix ds(s.rows(), s.cols());
        for (std::size_t k = 0; k < p; ++k)
          if (d(k, 0) != 0.0) ds += d(k, 0) * b.basis[k];
        for (std::size_t i = 0; i < ds.rows(); ++i) ds(i, i) -= d(p, 0);
        linalg::Cholesky chol(s);
        if (!chol.success()) continue;  // defensive; outer loop re-checks
        // Exact boundary: lambda_min(S^{-1} DS) = lambda_min(L^{-1} DS L^{-T})
        // computed on the symmetric congruence (two triangular solves).
        Matrix y = chol.lowerSolve(ds);                      // L^{-1} DS
        Matrix msym = chol.lowerSolve(y.transposed());       // L^{-1} DS L^{-T}
        linalg::symmetrize(msym);
        linalg::SymmetricEig eig(msym, false);
        const double lmin = eig.eigenvalues().front();
        if (lmin < 0.0) step = std::min(step, -0.95 / lmin);
      }

      std::vector<double> xTrial(p);
      double tTrial = 0.0;
      bool accepted = false;
      for (int ls = 0; ls < 60; ++ls) {
        for (std::size_t k = 0; k < p; ++k)
          xTrial[k] = res.x[k] + step * d(k, 0);
        tTrial = t + step * d(p, 0);
        bool interior = true;
        for (const auto& b : blocks) {
          if (!linalg::Cholesky(evalBlock(b, xTrial, tTrial)).success()) {
            interior = false;
            break;
          }
        }
        if (interior) {
          accepted = true;
          break;
        }
        step *= 0.5;
      }
      if (!accepted) break;
      res.x = xTrial;
      t = tTrial;
      ++res.newtonIterations;
      // Stationarity: scaled Newton decrement.
      if (gdotd * step < opt.gradTol * (1.0 + std::abs(t))) break;
    }
    mu *= opt.muFactor;
  }

  res.tStar = t;
  res.feasible = t >= -opt.feasTol * (1.0 + scale);
  return res;
}

}  // namespace shhpass::lmi
