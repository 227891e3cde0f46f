#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "api/thread_pool.hpp"

namespace shhpass::linalg {
namespace {

constexpr std::size_t MR = kGemmMr;
constexpr std::size_t NR = kGemmNr;
constexpr std::size_t MC = kGemmMc;
constexpr std::size_t KC = kGemmKc;
constexpr std::size_t NC = kGemmNc;

// ------------------------------------------------------------- thread pool
// The kernel pool is created lazily on the first setGemmThreads(t > 1) and
// torn down / resized on later calls. It is shared process-wide; see the
// threading contract in blas.hpp.
//
// The pool is held by shared_ptr so that setGemmThreads() concurrent with
// an in-flight threaded gemm is race-free: the gemm copies the pointer
// under gPoolMutex and keeps the old pool alive until its own panels have
// drained; the replacement pool's workers join when the last reference
// drops. Regression note: before PR 6 this was a unique_ptr whose reset
// could destroy (and join) a pool another thread was still submitting to —
// a use-after-free ThreadSanitizer flags in the setGemmThreads/gemm
// interleaving test of tests/test_thread_pool_stress.cpp.
std::mutex gPoolMutex;
std::shared_ptr<api::ThreadPool> gPool;
std::size_t gThreads = 1;
bool gThreadsConfigured = false;  // setGemmThreads() ran (beats the env)
std::once_flag gEnvInitFlag;

// Pre: gPoolMutex held. Installs a pool of t workers (t > 1) or removes
// the pool (t <= 1). Never joins under the mutex: an in-use old pool is
// kept alive by the shared_ptr copies the in-flight gemms hold.
void setGemmThreadsLocked(std::size_t t) {
  if (t <= 1) {
    gPool.reset();
    gThreads = 1;
    return;
  }
  if (gPool && gThreads == t) return;
  gPool.reset();
  gPool = std::make_shared<api::ThreadPool>(t);
  gThreads = t;
}

// One-shot SHHPASS_GEMM_THREADS environment default (the tsan CI job uses
// it to force the threaded kernel path under the full test suite). An
// explicit setGemmThreads() call — before or after — always wins;
// malformed values are ignored.
void ensureEnvThreadInit() {
  std::call_once(gEnvInitFlag, [] {
    const char* env = std::getenv("SHHPASS_GEMM_THREADS");
    if (env == nullptr || *env == '\0') return;
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || v > 1024) return;
    std::size_t t = static_cast<std::size_t>(v);
    if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (gThreadsConfigured) return;
    setGemmThreadsLocked(t);
  });
}

// ---------------------------------------------------------------- packing
// Packed A block: op(A)(i0 : i0+mb, p0 : p0+kb) * alpha, laid out as
// ceil(mb/MR) row strips; within a strip the kb columns are k-major with
// MR contiguous values each (zero-padded past mb). The micro-kernel then
// reads A with unit stride whatever transA was.
void packA(const Matrix& a, bool transA, double alpha, std::size_t i0,
           std::size_t mb, std::size_t p0, std::size_t kb, double* buf) {
  const std::size_t strips = (mb + MR - 1) / MR;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t r0 = s * MR;
    const std::size_t rValid = std::min(MR, mb - r0);
    double* out = buf + s * kb * MR;
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t r = 0; r < rValid; ++r)
        out[k * MR + r] = alpha * (transA ? a(p0 + k, i0 + r0 + r)
                                          : a(i0 + r0 + r, p0 + k));
      for (std::size_t r = rValid; r < MR; ++r) out[k * MR + r] = 0.0;
    }
  }
}

// Packed B panel: op(B)(p0 : p0+kb, j0 : j0+nb), laid out as ceil(nb/NR)
// column strips; within a strip the kb rows are k-major with NR contiguous
// values each (zero-padded past nb).
void packB(const Matrix& b, bool transB, std::size_t p0, std::size_t kb,
           std::size_t j0, std::size_t nb, double* buf) {
  const std::size_t strips = (nb + NR - 1) / NR;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t c0 = s * NR;
    const std::size_t cValid = std::min(NR, nb - c0);
    double* out = buf + s * kb * NR;
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t c = 0; c < cValid; ++c)
        out[k * NR + c] = transB ? b(j0 + c0 + c, p0 + k)
                                 : b(p0 + k, j0 + c0 + c);
      for (std::size_t c = cValid; c < NR; ++c) out[k * NR + c] = 0.0;
    }
  }
}

// ----------------------------------------------------------- micro-kernel
// out(MR x NR) = sum_k ap[k] * bp[k]^T over one packed panel pair. The
// accumulators are function-local (provably alias-free), so the compiler
// keeps all MR*NR of them in vector registers across the K loop; `out` is
// written once at the end.
//
// The same body is compiled twice: a portable baseline, and (on x86-64
// GCC/Clang) an AVX2+FMA clone selected once at startup via
// __builtin_cpu_supports. Which clone runs affects rounding (FMA
// contraction) exactly as switching BLAS backends would; it does not
// affect the determinism contract, which holds per machine.
#define SHHPASS_GEMM_MICRO_BODY                                       \
  double acc[MR][NR] = {};                                            \
  for (std::size_t k = 0; k < kb; ++k, ap += MR, bp += NR) {          \
    for (std::size_t i = 0; i < MR; ++i) {                            \
      const double ai = ap[i];                                        \
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ai * bp[j];   \
    }                                                                 \
  }                                                                   \
  for (std::size_t i = 0; i < MR; ++i)                                \
    for (std::size_t j = 0; j < NR; ++j) out[i * NR + j] = acc[i][j];

void microKernelGeneric(std::size_t kb, const double* ap, const double* bp,
                        double* out) {
  SHHPASS_GEMM_MICRO_BODY
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHHPASS_GEMM_X86_DISPATCH 1
// Hand-scheduled AVX2+FMA micro-kernel: the 4x8 accumulator tile lives in
// eight ymm registers (row i split into columns 0-3 / 4-7), each k step
// is two B loads, four A broadcasts, and eight fmadds. Every C element
// receives exactly acc[i][j] += a_i * b_j per k in ascending k order —
// the same per-element accumulation sequence as the portable body under
// FMA contraction, just without the compiler spilling the tile.
__attribute__((target("avx2,fma"))) void microKernelAvx2(
    std::size_t kb, const double* ap, const double* bp, double* out) {
  static_assert(MR == 4 && NR == 8, "micro-kernel is tiled for 4x8");
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kb; ++k, ap += MR, bp += NR) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    __m256d a = _mm256_broadcast_sd(ap);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(out, c00);
  _mm256_storeu_pd(out + 4, c01);
  _mm256_storeu_pd(out + 8, c10);
  _mm256_storeu_pd(out + 12, c11);
  _mm256_storeu_pd(out + 16, c20);
  _mm256_storeu_pd(out + 20, c21);
  _mm256_storeu_pd(out + 24, c30);
  _mm256_storeu_pd(out + 28, c31);
}
#endif
#undef SHHPASS_GEMM_MICRO_BODY

// ------------------------------------------------- level-1 hot kernels
// dotQuad / axpy / planeRot follow the micro-kernel pattern exactly: one
// portable body, one AVX2+FMA clone, a per-process dispatch. The quad
// accumulator layout of dotQuad maps lane-for-lane onto one ymm register,
// so the vector clone performs the same four independent partial sums
// (with FMA rounding) and the identical (s0 + s1) + (s2 + s3) reduction.

#define SHHPASS_DOT_QUAD_BODY                                         \
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;                      \
  std::size_t i = 0;                                                  \
  for (; i + 4 <= len; i += 4) {                                      \
    s0 += x[i] * y[i];                                                \
    s1 += x[i + 1] * y[i + 1];                                        \
    s2 += x[i + 2] * y[i + 2];                                        \
    s3 += x[i + 3] * y[i + 3];                                        \
  }                                                                   \
  for (; i < len; ++i) s0 += x[i] * y[i];                             \
  return (s0 + s1) + (s2 + s3);

#define SHHPASS_AXPY_BODY                                             \
  for (std::size_t i = 0; i < len; ++i) y[i] += alpha * x[i];

#define SHHPASS_PLANE_ROT_BODY                                        \
  for (std::size_t i = 0; i < len; ++i) {                             \
    const double a = x[i], b = y[i];                                  \
    x[i] = cs * a + sn * b;                                           \
    y[i] = -sn * a + cs * b;                                          \
  }

double dotQuadGeneric(const double* x, const double* y, std::size_t len) {
  SHHPASS_DOT_QUAD_BODY
}

void axpyGeneric(double alpha, const double* x, std::size_t len, double* y) {
  SHHPASS_AXPY_BODY
}

void planeRotGeneric(double cs, double sn, double* x, double* y,
                     std::size_t len) {
  SHHPASS_PLANE_ROT_BODY
}

#ifdef SHHPASS_GEMM_X86_DISPATCH
__attribute__((target("avx2,fma"))) double dotQuadAvx2(const double* x,
                                                       const double* y,
                                                       std::size_t len) {
  SHHPASS_DOT_QUAD_BODY
}

__attribute__((target("avx2,fma"))) void axpyAvx2(double alpha,
                                                  const double* x,
                                                  std::size_t len,
                                                  double* y) {
  SHHPASS_AXPY_BODY
}

__attribute__((target("avx2,fma"))) void planeRotAvx2(double cs, double sn,
                                                      double* x, double* y,
                                                      std::size_t len) {
  SHHPASS_PLANE_ROT_BODY
}
#endif
#undef SHHPASS_DOT_QUAD_BODY
#undef SHHPASS_AXPY_BODY
#undef SHHPASS_PLANE_ROT_BODY

using DotQuadFn = double (*)(const double*, const double*, std::size_t);
using AxpyFn = void (*)(double, const double*, std::size_t, double*);
using PlaneRotFn = void (*)(double, double, double*, double*, std::size_t);

bool cpuHasAvx2Fma() {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  __builtin_cpu_init();  // may run before main
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               double*);

// Function-local static: safe to call from any translation unit's static
// initializers (a namespace-scope pointer would be null until this TU's
// dynamic initialization ran).
MicroKernelFn microKernel() {
  static const MicroKernelFn fn = [] {
#ifdef SHHPASS_GEMM_X86_DISPATCH
    __builtin_cpu_init();  // may run before main
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return MicroKernelFn{microKernelAvx2};
#endif
    return MicroKernelFn{microKernelGeneric};
  }();
  return fn;
}

// ------------------------------------------------------------ macro-level
// Blocked gemm restricted to the C columns [j0, j0+nb): this is the unit
// of column-panel threading. Each element of C is accumulated over K in
// the same order regardless of [j0, nb), which is what makes the threaded
// kernel bit-deterministic.
void gemmBlockedCols(double alpha, const Matrix& a, bool transA,
                     const Matrix& b, bool transB, double beta, Matrix& c,
                     std::size_t m, std::size_t n, std::size_t k,
                     std::size_t j0, std::size_t nb) {
  (void)n;
  double* cdata = c.data();
  const std::size_t ldc = c.cols();

  if (beta != 1.0)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = j0; j < j0 + nb; ++j) cdata[i * ldc + j] *= beta;
  if (k == 0 || alpha == 0.0) return;

  std::vector<double> apack(MC * KC);
  std::vector<double> bpack(KC * ((std::min(nb, NC) + NR - 1) / NR) * NR);
  double tile[MR * NR];
  const MicroKernelFn micro = microKernel();

  for (std::size_t jc = j0; jc < j0 + nb; jc += NC) {
    const std::size_t ncur = std::min(NC, j0 + nb - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kcur = std::min(KC, k - pc);
      packB(b, transB, pc, kcur, jc, ncur, bpack.data());
      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mcur = std::min(MC, m - ic);
        packA(a, transA, alpha, ic, mcur, pc, kcur, apack.data());
        const std::size_t mStrips = (mcur + MR - 1) / MR;
        const std::size_t nStrips = (ncur + NR - 1) / NR;
        for (std::size_t jr = 0; jr < nStrips; ++jr) {
          const double* bp = bpack.data() + jr * kcur * NR;
          const std::size_t cValid = std::min(NR, ncur - jr * NR);
          for (std::size_t ir = 0; ir < mStrips; ++ir) {
            const double* ap = apack.data() + ir * kcur * MR;
            const std::size_t rValid = std::min(MR, mcur - ir * MR);
            micro(kcur, ap, bp, tile);
            double* ctile =
                cdata + (ic + ir * MR) * ldc + (jc + jr * NR);
            // Interior tiles take the unclipped fast path; edge tiles do
            // the same arithmetic with a clipped write-back.
            if (rValid == MR && cValid == NR) {
              for (std::size_t i = 0; i < MR; ++i)
                for (std::size_t j = 0; j < NR; ++j)
                  ctile[i * ldc + j] += tile[i * NR + j];
            } else {
              for (std::size_t i = 0; i < rValid; ++i)
                for (std::size_t j = 0; j < cValid; ++j)
                  ctile[i * ldc + j] += tile[i * NR + j];
            }
          }
        }
      }
    }
  }
}

void checkGemmShapes(const Matrix& a, bool transA, const Matrix& b,
                     bool transB, const Matrix& c, std::size_t& m,
                     std::size_t& n, std::size_t& k) {
  m = transA ? a.cols() : a.rows();
  k = transA ? a.rows() : a.cols();
  const std::size_t kb = transB ? b.cols() : b.rows();
  n = transB ? b.rows() : b.cols();
  if (k != kb) throw std::invalid_argument("gemm: inner dimension mismatch");
  if (c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm: output shape mismatch");
}

// The reference gemm body, compiled once portable and once under the
// AVX2+FMA target (the i-k-j inner loop is a contiguous axpy into row i
// of C when op(B) = B, which the vectorizer handles directly).
#define SHHPASS_GEMM_REF_BODY                                         \
  auto A = [&](std::size_t i, std::size_t p) {                        \
    return transA ? a(p, i) : a(i, p);                                \
  };                                                                  \
  auto B = [&](std::size_t p, std::size_t j) {                        \
    return transB ? b(j, p) : b(p, j);                                \
  };                                                                  \
  for (std::size_t i = 0; i < m; ++i) {                               \
    for (std::size_t p = 0; p < k; ++p) {                             \
      const double v = alpha * A(i, p);                               \
      if (v == 0.0) continue;                                         \
      for (std::size_t j = 0; j < n; ++j) c(i, j) += v * B(p, j);     \
    }                                                                 \
  }

void gemmReferenceGeneric(double alpha, const Matrix& a, bool transA,
                          const Matrix& b, bool transB, Matrix& c,
                          std::size_t m, std::size_t n, std::size_t k) {
  SHHPASS_GEMM_REF_BODY
}

#ifdef SHHPASS_GEMM_X86_DISPATCH
__attribute__((target("avx2,fma"))) void gemmReferenceAvx2(
    double alpha, const Matrix& a, bool transA, const Matrix& b, bool transB,
    Matrix& c, std::size_t m, std::size_t n, std::size_t k) {
  SHHPASS_GEMM_REF_BODY
}
#endif
#undef SHHPASS_GEMM_REF_BODY

}  // namespace

double dotQuad(const double* x, const double* y, std::size_t len) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  static const DotQuadFn fn =
      cpuHasAvx2Fma() ? DotQuadFn{dotQuadAvx2} : DotQuadFn{dotQuadGeneric};
  return fn(x, y, len);
#else
  return dotQuadGeneric(x, y, len);
#endif
}

void axpy(double alpha, const double* x, std::size_t len, double* y) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  static const AxpyFn fn =
      cpuHasAvx2Fma() ? AxpyFn{axpyAvx2} : AxpyFn{axpyGeneric};
  fn(alpha, x, len, y);
#else
  axpyGeneric(alpha, x, len, y);
#endif
}

void planeRot(double cs, double sn, double* x, double* y, std::size_t len) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  static const PlaneRotFn fn = cpuHasAvx2Fma() ? PlaneRotFn{planeRotAvx2}
                                               : PlaneRotFn{planeRotGeneric};
  fn(cs, sn, x, y, len);
#else
  planeRotGeneric(cs, sn, x, y, len);
#endif
}

void gemmReference(double alpha, const Matrix& a, bool transA,
                   const Matrix& b, bool transB, double beta, Matrix& c) {
  std::size_t m, n, k;
  checkGemmShapes(a, transA, b, transB, c, m, n, k);

  if (beta != 1.0) c *= beta;
#ifdef SHHPASS_GEMM_X86_DISPATCH
  if (cpuHasAvx2Fma()) {
    gemmReferenceAvx2(alpha, a, transA, b, transB, c, m, n, k);
    return;
  }
#endif
  gemmReferenceGeneric(alpha, a, transA, b, transB, c, m, n, k);
}

void gemmBlocked(double alpha, const Matrix& a, bool transA, const Matrix& b,
                 bool transB, double beta, Matrix& c) {
  std::size_t m, n, k;
  checkGemmShapes(a, transA, b, transB, c, m, n, k);
  if (m == 0 || n == 0) return;

  std::size_t threads = 1;
  std::shared_ptr<api::ThreadPool> pool;
  if (m * n * k >= kGemmThreadedFlopFloor) {
    ensureEnvThreadInit();
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (gThreads > 1 && gPool) {
      threads = gThreads;
      pool = gPool;  // keeps the pool alive across a concurrent reconfigure
    }
  }
  // Fan out over disjoint column panels, at least one micro-tile wide, so
  // workers never share a cache line of C and per-element accumulation
  // order stays independent of the partition (bit-determinism).
  const std::size_t maxPanels = std::max<std::size_t>(1, n / NR);
  threads = std::min(threads, maxPanels);
  if (threads <= 1 || pool == nullptr) {
    gemmBlockedCols(alpha, a, transA, b, transB, beta, c, m, n, k, 0, n);
    return;
  }
  const std::size_t chunk = ((n + threads - 1) / threads + NR - 1) / NR * NR;
  for (std::size_t j0 = 0; j0 < n; j0 += chunk) {
    const std::size_t nb = std::min(chunk, n - j0);
    pool->submit([=, &a, &b, &c] {
      gemmBlockedCols(alpha, a, transA, b, transB, beta, c, m, n, k, j0, nb);
    });
  }
  pool->wait();
}

void gemm(double alpha, const Matrix& a, bool transA, const Matrix& b,
          bool transB, double beta, Matrix& c) {
  std::size_t m, n, k;
  checkGemmShapes(a, transA, b, transB, c, m, n, k);
  const std::size_t flopProducts = m * n * k;
  obs::counterAdd(obs::Counter::GemmCalls);
  obs::counterAdd(obs::Counter::GemmFlops, 2 * flopProducts);
  // Spans only for products big enough to thread: per-call tracing of the
  // thousands of tiny products would swamp the buffers and the timeline
  // (the sampling-friendly coarse-granularity contract of obs/trace.hpp).
  obs::ObsSpan span("gemm", "kernel",
                    flopProducts >= kGemmThreadedFlopFloor);
  span.arg("flops", static_cast<std::int64_t>(2 * flopProducts));
  // Thin or tiny products do not amortize the packing cost; the reference
  // kernel is also the better gemv/ger. The dispatch is performance-only:
  // both kernels implement the same contract.
  if (m < MR || n < NR || k < 4 || flopProducts < kGemmBlockedFlopFloor) {
    gemmReference(alpha, a, transA, b, transB, beta, c);
    return;
  }
  gemmBlocked(alpha, a, transA, b, transB, beta, c);
}

std::size_t gemmThreads() {
  ensureEnvThreadInit();
  std::lock_guard<std::mutex> lock(gPoolMutex);
  return gPool ? gThreads : 1;
}

void setGemmThreads(std::size_t t) {
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  std::lock_guard<std::mutex> lock(gPoolMutex);
  gThreadsConfigured = true;
  setGemmThreadsLocked(t);
}

Matrix multiply(const Matrix& a, bool transA, const Matrix& b, bool transB) {
  const std::size_t m = transA ? a.cols() : a.rows();
  const std::size_t n = transB ? b.rows() : b.cols();
  Matrix c(m, n);
  gemm(1.0, a, transA, b, transB, 0.0, c);
  return c;
}

Matrix atb(const Matrix& a, const Matrix& b) {
  return multiply(a, true, b, false);
}

Matrix abt(const Matrix& a, const Matrix& b) {
  return multiply(a, false, b, true);
}

double colDot(const Matrix& a, std::size_t ja, const Matrix& b,
              std::size_t jb) {
  if (a.rows() != b.rows()) throw std::invalid_argument("colDot: row mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) s += a(i, ja) * b(i, jb);
  return s;
}

double colNorm(const Matrix& a, std::size_t j) {
  // Two-pass scaled norm to avoid overflow/underflow.
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    scale = std::max(scale, std::abs(a(i, j)));
  if (scale == 0.0) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double v = a(i, j) / scale;
    s += v * v;
  }
  return scale * std::sqrt(s);
}

void symmetrize(Matrix& a) {
  if (!a.isSquare()) throw std::invalid_argument("symmetrize: not square");
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      const double v = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = v;
      a(j, i) = v;
    }
}

void skewSymmetrize(Matrix& a) {
  if (!a.isSquare()) throw std::invalid_argument("skewSymmetrize: not square");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, i) = 0.0;
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      const double v = 0.5 * (a(i, j) - a(j, i));
      a(i, j) = v;
      a(j, i) = -v;
    }
  }
}

}  // namespace shhpass::linalg
