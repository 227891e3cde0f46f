// Compact-WY representation of products of Householder reflectors.
//
// A set of k elementary reflectors H_j = I - tau_j v_j v_j^T (v_j with a
// unit leading element) composes into the single rank-k form
//
//     Q = H_0 H_1 ... H_{k-1} = I - V T V^T,
//
// with V = [v_0 ... v_{k-1}] and T a k x k upper-triangular factor
// (LAPACK dlarft, forward columnwise). Applying Q (or Q^T) to a matrix
// then costs three gemm calls instead of k rank-1 updates — this is what
// turns the Hessenberg reduction, the QR factorization and the SVD's
// factor accumulation into BLAS-3 algorithms. qr.cpp, svd.cpp and
// staircase.cpp apply their blocks through applyBlockReflectorLeft; the
// Hessenberg reduction keeps V transposed and applies its blocks in place
// with view gemms (hessenberg.cpp), building T itself.
//
// Conventions:
//   * V is stored as a dense m x k matrix; column j is the full-length
//     reflector vector, with its leading 1 stored EXPLICITLY and exact
//     zeros above it. Callers that hold packed reflectors (below the
//     diagonal of a factored matrix) materialize V once per block.
//   * tau_j == 0 encodes H_j = I (a column that needed no reflection);
//     buildCompactWyT produces a zero column of T for it, so the block
//     form remains exact.
//
// Accuracy: the block application is backward stable like the unblocked
// one; blocked and per-reflector application agree to O(k * eps * ||C||)
// (the summation order differs), enforced at 1e-13 by
// tests/test_blas_blocked.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Compute an elementary reflector H = I - tau v v^T annihilating x(1:):
/// H [x0; x(1:)] = [beta; 0]. On return v (length len) holds the reflector
/// with v[0] == 1, and beta the surviving entry. Returns tau; tau == 0
/// (with beta == x0) when x(1:) is already zero, in which case H == I.
/// Overflow-guarded like dlarfg (the norm is computed scaled).
double makeReflector(const double* x, std::size_t len, double* v,
                     double& beta);

/// Upper-triangular T with H_0 ... H_{k-1} = I - V T V^T (dlarft, forward
/// columnwise). V is m x k in the convention above; tau.size() == k.
Matrix buildCompactWyT(const Matrix& v, const std::vector<double>& tau);

/// C := (I - V T V^T) C, or (I - V T^T V^T) C when `transpose` — i.e.
/// Q C or Q^T C — via three gemm calls. C must have v.rows() rows.
void applyBlockReflectorLeft(const Matrix& v, const Matrix& t,
                             bool transpose, Matrix& c);

}  // namespace shhpass::linalg
