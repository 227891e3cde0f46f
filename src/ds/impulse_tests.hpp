// The impulsive structure of a descriptor system, read from ONE record:
// the second Wong sequence of the pencil (E, A),
//   W_1 = Ker E,   W_{j+1} = Ker E + E^+(A W_j  ∩  Im E),
// which grows to W*, the deflating subspace of the infinite eigenvalues
// (T. Berger, A. Ilchmann and S. Trenn, "The quasi-Kronecker form for
// matrix pencils", SIMAX 33(2), 2012; P. Van Dooren, LAA 27, 1979), plus
// the right and left grade-2 chain heads and partners of Sec. 3.4
// (Eqs. 24-25). The mode census, the pencil index, the Sec.-2.5 impulse
// tests, the regularity and finite-stability screens and the pipeline's
// m1-extraction stage (core/markov.hpp) are all readings of this record.
// It is built from one compression of E (linalg/staircase.hpp), and every
// rank decision goes through the shared policy (linalg/svd.hpp).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "ds/descriptor.hpp"
#include "linalg/staircase.hpp"

namespace shhpass::ds {

/// The staircase record of G's impulsive structure. With R = Im E,
/// K = Ker E, K_l = Ker E^T and Q = Im E^T (orthonormal bases from the
/// one compression of E). Every matrix is empty when E is nonsingular.
struct ImpulsiveStructure {
  std::size_t order = 0;  ///< n
  std::size_t rankE = 0;  ///< r
  /// dim W_1 = n - r, dim W_2, ..., dim W*: one entry per Wong level, so
  /// the pencil index is the length (0 when E is nonsingular).
  std::vector<std::size_t> wongDims;
  linalg::Matrix kerE;      ///< K, n x (n - r)
  linalg::Matrix leftKerE;  ///< K_l, n x (n - r)
  linalg::Matrix projAK;    ///< (I - R R^T) A K; its kernel gives the heads
  linalg::Matrix projAtKl;  ///< (I - Q Q^T) A^T K_l, the left dual
  /// Right grade-2 heads V1 = K Ker(projAK) (v in Ker E with A v in Im E)
  /// and their partners V2 = E^+ A V1 (empty when there are no heads).
  linalg::Matrix heads, partners;
  /// Left heads W1 = K_l Ker(projAtKl) and partners W2 = (E^T)^+ A^T W1.
  linalg::Matrix leftHeads, leftPartners;
  /// Orthonormal basis [K, X] of W*, n x dim W*, with X inside Im E^T
  /// (the last Wong level's basis).
  linalg::Matrix infiniteBasis;

  /// The pencil index: the number of Wong levels.
  std::size_t index() const { return wongDims.size(); }
  /// dim W*: the number of infinite eigenvalues, n - deg det(sE - A).
  std::size_t infiniteDim() const {
    return wongDims.empty() ? 0 : wongDims.back();
  }
};

/// Build the record. A non-null `eCompression` (a compression of sys.e
/// with all four bases, linalg::CompressionOptions::allBases, e.g. the
/// one the pipeline's prerequisites stage makes) is reused instead of
/// recompressing E. Rank decisions are recorded into `rankReport` and the
/// staircase health into `stair`, when non-null.
ImpulsiveStructure impulsiveStructure(
    const DescriptorSystem& sys, double rankTol = -1.0,
    const linalg::Compression* eCompression = nullptr,
    linalg::RankReport* rankReport = nullptr,
    linalg::StaircaseReport* stair = nullptr);

/// The finite spectrum of (E, A), read off the record. With W* = Im
/// infiniteBasis, the pencil is regular iff A is injective on W*
/// (rank(A W*) = dim W*, one shared-policy compression): a singular block
/// puts a polynomial kernel inside W* that A maps to zero. A regular
/// pencil is then block triangular in the orthogonal bases [W⊥, W*] and
/// [Z⊥, A W*], with Z⊥ the left nullspace of A W* and
/// W⊥ = corange(E) * complement(corange(E)^T X), so its finite
/// eigenvalues are those of the order-q finite part
/// (Z⊥^T E W⊥, Z⊥^T A W⊥), q = n - dim W*. A fast pole is a large
/// eigenvalue there, not an eigenvalue lost to an "infinite" cutoff.
struct FiniteSpectrum {
  bool regular = false;
  /// The q finite eigenvalues (empty for a singular pencil).
  std::vector<std::complex<double>> eigenvalues;

  /// Re lambda < 0 for every finite eigenvalue.
  bool stable() const;
};

/// The finite spectrum of a system from its record `s` and the
/// compression `eCompression` of sys.e the record was built on. The
/// A W* rank decision is recorded into `rankReport` and its compression
/// into `stair`, when non-null. Runs in a "stability-screen" kernel span.
FiniteSpectrum finiteSpectrum(const DescriptorSystem& sys,
                              const ImpulsiveStructure& s,
                              const linalg::Compression& eCompression,
                              double rankTol = -1.0,
                              linalg::RankReport* rankReport = nullptr,
                              linalg::StaircaseReport* stair = nullptr);

/// Mode-structure census of a regular pencil (E, A):
/// n = q finite dynamic + (n - r) nondynamic + (r - q) impulsive.
struct ModeCensus {
  std::size_t order = 0;       ///< n
  std::size_t rankE = 0;       ///< r
  std::size_t finite = 0;      ///< q = n - dim W* = deg det(sE - A)
  std::size_t nondynamic = 0;  ///< n - r (grade-1 infinite modes)
  std::size_t impulsive = 0;   ///< dim W* - (n - r) (grade >= 2 modes)
};

/// Count finite / nondynamic / impulsive modes of the system's pencil.
/// Throws std::runtime_error on a singular pencil.
ModeCensus censusModes(const DescriptorSystem& sys, double rankTol = -1.0);

/// (E, A) is impulse-free iff it has no grade-2 heads, i.e.
/// (I - R R^T) A K has full column rank (in SVD coordinates: A22 vanishes
/// or is nonsingular).
bool isImpulseFree(const DescriptorSystem& sys, double rankTol = -1.0);

/// (E, A, C) is impulse observable iff [(I - R R^T) A K; C K] has full
/// column rank (the singular values of [A22; C2] in SVD coordinates).
bool isImpulseObservable(const DescriptorSystem& sys, double rankTol = -1.0);

/// (E, A, B) is impulse controllable iff the left dual
/// [(I - Q Q^T) A^T K_l; B^T K_l] has full column rank (the singular
/// values of [A22 B2]^T in SVD coordinates).
bool isImpulseControllable(const DescriptorSystem& sys, double rankTol = -1.0);

/// The index of the pencil: the number of Wong levels. 0 if E is
/// nonsingular, 1 if impulse-free with singular E, and k >= 2 when
/// grade-k infinite eigenvectors exist.
std::size_t pencilIndex(const DescriptorSystem& sys, double rankTol = -1.0);

}  // namespace shhpass::ds
