#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "linalg/thread_pool.hpp"

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
std::shared_ptr<ThreadPool> gPool;
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
  gPool = std::make_shared<ThreadPool>(t);
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
// ceil(mb/TMR) row strips; within a strip the kb columns are k-major with
// TMR contiguous values each (zero-padded past mb). The micro-kernel then
// reads A with unit stride whatever transA was.
template <std::size_t TMR>
void packA(ConstMatrixView a, bool transA, double alpha, std::size_t i0,
           std::size_t mb, std::size_t p0, std::size_t kb, double* buf) {
  const std::size_t strips = (mb + TMR - 1) / TMR;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t r0 = s * TMR;
    const std::size_t rValid = std::min(TMR, mb - r0);
    double* out = buf + s * kb * TMR;
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t r = 0; r < rValid; ++r)
        out[k * TMR + r] = alpha * (transA ? a(p0 + k, i0 + r0 + r)
                                           : a(i0 + r0 + r, p0 + k));
      for (std::size_t r = rValid; r < TMR; ++r) out[k * TMR + r] = 0.0;
    }
  }
}

// Packed B panel: op(B)(p0 : p0+kb, j0 : j0+nb), laid out as ceil(nb/TNR)
// column strips; within a strip the kb rows are k-major with TNR
// contiguous values each (zero-padded past nb).
template <std::size_t TNR>
void packB(ConstMatrixView b, bool transB, std::size_t p0, std::size_t kb,
           std::size_t j0, std::size_t nb, double* buf) {
  const std::size_t strips = (nb + TNR - 1) / TNR;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t c0 = s * TNR;
    const std::size_t cValid = std::min(TNR, nb - c0);
    double* out = buf + s * kb * TNR;
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t c = 0; c < cValid; ++c)
        out[k * TNR + c] = transB ? b(j0 + c0 + c, p0 + k)
                                  : b(p0 + k, j0 + c0 + c);
      for (std::size_t c = cValid; c < TNR; ++c) out[k * TNR + c] = 0.0;
    }
  }
}

// Per-call pack storage, uninitialized and aligned to a cache line so
// every packed sliver row starts on one (the wide tile loads whole
// 64-byte rows of B). Deliberately not thread_local: per-thread buffers
// would stay resident in every runBatch worker.
class PackBuffer {
 public:
  explicit PackBuffer(std::size_t doubles)
      : raw_(std::make_unique_for_overwrite<double[]>(doubles + 8)) {
    void* p = raw_.get();
    std::size_t space = (doubles + 8) * sizeof(double);
    data_ = static_cast<double*>(
        std::align(64, doubles * sizeof(double), p, space));
  }
  double* data() const { return data_; }

 private:
  std::unique_ptr<double[]> raw_;
  double* data_ = nullptr;
};

// ---------------------------------------------------------- micro-kernels
// out(TMR x TNR) = sum_k ap[k] * bp[k]^T over one packed panel pair. Every
// kernel gives each C element the same sequence: acc starts at zero and
// takes acc += a_ik * b_kj per k in ascending order (one fused multiply-add
// per step where the CPU has FMA, a rounded multiply and add otherwise);
// the caller then adds acc into C. Which kernel runs never changes an
// FMA machine's bits — only which CPU features exist does, exactly as
// switching BLAS backends would; the determinism contract holds per
// machine.
using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               double*);

// The portable 4x8 body. The accumulators are function-local (provably
// alias-free), so the compiler keeps them in registers across the K loop.
void microKernelGeneric(std::size_t kb, const double* ap, const double* bp,
                        double* out) {
  double acc[MR][NR] = {};
  for (std::size_t k = 0; k < kb; ++k, ap += MR, bp += NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      const double ai = ap[i];
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ai * bp[j];
    }
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j) out[i * NR + j] = acc[i][j];
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHHPASS_GEMM_X86_DISPATCH 1
// Hand-scheduled AVX2+FMA 4x8 tile: eight ymm accumulators (row i split
// into columns 0-3 / 4-7); each k step is two B loads, four A broadcasts
// and eight fmadds.
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

// Hand-scheduled AVX-512F 8x24 tile: 24 zmm accumulators (row i split
// into columns 0-7 / 8-15 / 16-23); each k step is three B loads, eight A
// broadcasts and 24 fmadds, which leaves 4 of the 32 zmm registers for
// the operands.
__attribute__((target("avx512f"))) void microKernelAvx512(
    std::size_t kb, const double* ap, const double* bp, double* out) {
  static_assert(kGemmWideMr == 8 && kGemmWideNr == 24,
                "micro-kernel is tiled for 8x24");
#define SHHPASS_WIDE_ROW_DECL(i)                                      \
  __m512d c##i##0 = _mm512_setzero_pd(), c##i##1 = _mm512_setzero_pd(), \
          c##i##2 = _mm512_setzero_pd();
#define SHHPASS_WIDE_ROW_FMA(i)                                       \
  {                                                                   \
    const __m512d a = _mm512_set1_pd(ap[i]);                          \
    c##i##0 = _mm512_fmadd_pd(a, b0, c##i##0);                        \
    c##i##1 = _mm512_fmadd_pd(a, b1, c##i##1);                        \
    c##i##2 = _mm512_fmadd_pd(a, b2, c##i##2);                        \
  }
#define SHHPASS_WIDE_ROW_STORE(i)                                     \
  _mm512_storeu_pd(out + (i) * kGemmWideNr, c##i##0);                 \
  _mm512_storeu_pd(out + (i) * kGemmWideNr + 8, c##i##1);             \
  _mm512_storeu_pd(out + (i) * kGemmWideNr + 16, c##i##2);
  SHHPASS_WIDE_ROW_DECL(0) SHHPASS_WIDE_ROW_DECL(1)
  SHHPASS_WIDE_ROW_DECL(2) SHHPASS_WIDE_ROW_DECL(3)
  SHHPASS_WIDE_ROW_DECL(4) SHHPASS_WIDE_ROW_DECL(5)
  SHHPASS_WIDE_ROW_DECL(6) SHHPASS_WIDE_ROW_DECL(7)
  for (std::size_t k = 0; k < kb; ++k, ap += kGemmWideMr, bp += kGemmWideNr) {
    const __m512d b0 = _mm512_loadu_pd(bp);
    const __m512d b1 = _mm512_loadu_pd(bp + 8);
    const __m512d b2 = _mm512_loadu_pd(bp + 16);
    SHHPASS_WIDE_ROW_FMA(0) SHHPASS_WIDE_ROW_FMA(1)
    SHHPASS_WIDE_ROW_FMA(2) SHHPASS_WIDE_ROW_FMA(3)
    SHHPASS_WIDE_ROW_FMA(4) SHHPASS_WIDE_ROW_FMA(5)
    SHHPASS_WIDE_ROW_FMA(6) SHHPASS_WIDE_ROW_FMA(7)
  }
  SHHPASS_WIDE_ROW_STORE(0) SHHPASS_WIDE_ROW_STORE(1)
  SHHPASS_WIDE_ROW_STORE(2) SHHPASS_WIDE_ROW_STORE(3)
  SHHPASS_WIDE_ROW_STORE(4) SHHPASS_WIDE_ROW_STORE(5)
  SHHPASS_WIDE_ROW_STORE(6) SHHPASS_WIDE_ROW_STORE(7)
#undef SHHPASS_WIDE_ROW_DECL
#undef SHHPASS_WIDE_ROW_FMA
#undef SHHPASS_WIDE_ROW_STORE
}
#endif

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

// The CPU's kernel features, read once per process. Function-local
// static: safe to call from any translation unit's static initializers.
struct CpuFeatures {
  bool avx2Fma = false;  // the 4x8 FMA tile and the level-1 clones
  bool avx512 = false;   // the 8x24 tile (AVX-512F, which has FMA)
};

const CpuFeatures& cpu() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#ifdef SHHPASS_GEMM_X86_DISPATCH
    __builtin_cpu_init();  // may run before main
    f.avx2Fma =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    f.avx512 = f.avx2Fma && __builtin_cpu_supports("avx512f");
#endif
    return f;
  }();
  return features;
}

// ---------------------------------------------------------------- fan-out
// The pool a call of `work` multiply-adds fans out to, pinned by shared
// ownership for the call's duration (nullptr: run inline). Only calls at
// or above `floor` look at the pool at all.
std::shared_ptr<ThreadPool> pinPool(std::size_t work, std::size_t floor,
                                    std::size_t& threads) {
  threads = 1;
  if (work < floor) return nullptr;
  ensureEnvThreadInit();
  std::lock_guard<std::mutex> lock(gPoolMutex);
  if (gThreads <= 1 || !gPool) return nullptr;
  threads = gThreads;
  return gPool;  // keeps the pool alive across a concurrent reconfigure
}

// Splits `strips` units into at most `threads` contiguous, balanced runs
// [s0, s1) and calls body(s0, s1) for each: inline when there is one
// run, otherwise as one pool job per run.
template <typename Body>
void fanOut(const std::shared_ptr<ThreadPool>& pool, std::size_t threads,
            std::size_t strips, const Body& body) {
  threads = std::min(threads, strips);
  if (pool == nullptr || threads <= 1) {
    body(std::size_t{0}, strips);
    return;
  }
  std::vector<std::function<void()>> jobs;
  jobs.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t s0 = t * strips / threads;
    const std::size_t s1 = (t + 1) * strips / threads;
    jobs.emplace_back([&body, s0, s1] { body(s0, s1); });
  }
  pool->run(std::move(jobs));
}

// ------------------------------------------------------------ macro-level
// One gemm product: C = alpha * op(A) * op(B) + beta * C with inner
// dimension k.
struct Product {
  double alpha;
  ConstMatrixView a;
  bool transA;
  ConstMatrixView b;
  bool transB;
  double beta;
  MatrixView c;
  std::size_t k;
};

// Blocked gemm restricted to the C tile rows [i0, i0+mb) x columns
// [j0, j0+nb), on a TMR x TNR register tile: the unit of threading, over
// rows or columns alike. Each element of C is scaled by beta once and
// then takes one c += acc per KC block in ascending block order, whatever
// the tile's bounds, which is what makes the threaded kernel
// bit-deterministic.
template <std::size_t TMR, std::size_t TNR>
void gemmTile(const Product& p, MicroKernelFn micro, std::size_t i0,
              std::size_t mb, std::size_t j0, std::size_t nb) {
  constexpr std::size_t kNc = NC / TNR * TNR;
  static_assert(MC % TMR == 0 && kNc > 0, "blocking must hold whole tiles");
  double* cdata = p.c.data;
  const std::size_t ldc = p.c.ld;
  if (p.beta != 1.0)
    for (std::size_t i = i0; i < i0 + mb; ++i)
      for (std::size_t j = j0; j < j0 + nb; ++j) cdata[i * ldc + j] *= p.beta;
  if (p.k == 0 || p.alpha == 0.0) return;

  const PackBuffer apack(std::min(MC, (mb + TMR - 1) / TMR * TMR) *
                         std::min(KC, p.k));
  const PackBuffer bpack(std::min(KC, p.k) *
                         ((std::min(nb, kNc) + TNR - 1) / TNR * TNR));
  double tile[TMR * TNR];

  for (std::size_t jc = j0; jc < j0 + nb; jc += kNc) {
    const std::size_t ncur = std::min(kNc, j0 + nb - jc);
    for (std::size_t pc = 0; pc < p.k; pc += KC) {
      const std::size_t kcur = std::min(KC, p.k - pc);
      packB<TNR>(p.b, p.transB, pc, kcur, jc, ncur, bpack.data());
      for (std::size_t ic = i0; ic < i0 + mb; ic += MC) {
        const std::size_t mcur = std::min(MC, i0 + mb - ic);
        packA<TMR>(p.a, p.transA, p.alpha, ic, mcur, pc, kcur,
                   apack.data());
        const std::size_t mStrips = (mcur + TMR - 1) / TMR;
        const std::size_t nStrips = (ncur + TNR - 1) / TNR;
        for (std::size_t jr = 0; jr < nStrips; ++jr) {
          const double* bp = bpack.data() + jr * kcur * TNR;
          const std::size_t cValid = std::min(TNR, ncur - jr * TNR);
          for (std::size_t ir = 0; ir < mStrips; ++ir) {
            const double* ap = apack.data() + ir * kcur * TMR;
            const std::size_t rValid = std::min(TMR, mcur - ir * TMR);
            micro(kcur, ap, bp, tile);
            double* ctile = cdata + (ic + ir * TMR) * ldc + (jc + jr * TNR);
            // Interior tiles take the unclipped fast path; edge tiles do
            // the same arithmetic with a clipped write-back.
            if (rValid == TMR && cValid == TNR) {
              for (std::size_t i = 0; i < TMR; ++i)
                for (std::size_t j = 0; j < TNR; ++j)
                  ctile[i * ldc + j] += tile[i * TNR + j];
            } else {
              for (std::size_t i = 0; i < rValid; ++i)
                for (std::size_t j = 0; j < cValid; ++j)
                  ctile[i * ldc + j] += tile[i * TNR + j];
            }
          }
        }
      }
    }
  }
}

// Runs the product on one register tile, fanned out over whichever
// dimension of C is larger: a tall product splits by rows, so no worker
// packs all of A, and a wide or square one splits by columns. Panels are
// whole tiles thick and each element of C belongs to exactly one of them.
template <std::size_t TMR, std::size_t TNR>
void gemmFanOut(const Product& p, MicroKernelFn micro, std::size_t m,
                std::size_t n) {
  std::size_t threads = 1;
  const std::shared_ptr<ThreadPool> pool =
      pinPool(m * n * p.k, kGemmThreadedFlopFloor, threads);
  if (m > n) {
    fanOut(pool, threads, (m + TMR - 1) / TMR,
           [&](std::size_t s0, std::size_t s1) {
             const std::size_t i0 = s0 * TMR;
             gemmTile<TMR, TNR>(p, micro, i0, std::min(m, s1 * TMR) - i0, 0,
                                n);
           });
  } else {
    fanOut(pool, threads, (n + TNR - 1) / TNR,
           [&](std::size_t s0, std::size_t s1) {
             const std::size_t j0 = s0 * TNR;
             gemmTile<TMR, TNR>(p, micro, 0, m, j0,
                                std::min(n, s1 * TNR) - j0);
           });
  }
}

void checkGemmShapes(ConstMatrixView a, bool transA, ConstMatrixView b,
                     bool transB, MatrixView c, std::size_t& m,
                     std::size_t& n, std::size_t& k) {
  m = transA ? a.cols : a.rows;
  k = transA ? a.rows : a.cols;
  const std::size_t kb = transB ? b.cols : b.rows;
  n = transB ? b.rows : b.cols;
  if (k != kb) throw std::invalid_argument("gemm: inner dimension mismatch");
  if (c.rows != m || c.cols != n)
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

void gemmReferenceGeneric(double alpha, ConstMatrixView a, bool transA,
                          ConstMatrixView b, bool transB, MatrixView c,
                          std::size_t m, std::size_t n, std::size_t k) {
  SHHPASS_GEMM_REF_BODY
}

#ifdef SHHPASS_GEMM_X86_DISPATCH
__attribute__((target("avx2,fma"))) void gemmReferenceAvx2(
    double alpha, ConstMatrixView a, bool transA, ConstMatrixView b,
    bool transB, MatrixView c, std::size_t m, std::size_t n, std::size_t k) {
  SHHPASS_GEMM_REF_BODY
}
#endif
#undef SHHPASS_GEMM_REF_BODY

// The reference kernel on views: c *= beta (unless beta == 1), then the
// i-k-j body.
void gemmReferenceView(double alpha, ConstMatrixView a, bool transA,
                       ConstMatrixView b, bool transB, double beta,
                       MatrixView c, std::size_t m, std::size_t n,
                       std::size_t k) {
  if (beta != 1.0)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) c(i, j) *= beta;
#ifdef SHHPASS_GEMM_X86_DISPATCH
  if (cpu().avx2Fma) {
    gemmReferenceAvx2(alpha, a, transA, b, transB, c, m, n, k);
    return;
  }
#endif
  gemmReferenceGeneric(alpha, a, transA, b, transB, c, m, n, k);
}

// The blocked kernel on views, without the size dispatch.
void gemmBlockedView(double alpha, ConstMatrixView a, bool transA,
                     ConstMatrixView b, bool transB, double beta,
                     MatrixView c, std::size_t m, std::size_t n,
                     std::size_t k) {
  if (m == 0 || n == 0) return;
  const Product p{alpha, a, transA, b, transB, beta, c, k};
#ifdef SHHPASS_GEMM_X86_DISPATCH
  // The wide tile pays off once a product holds a few of its tiles each
  // way; below that the 4x8 tile wastes less on zero-padded edges. Both
  // run the same per-element FMA sequence, so the choice never changes a
  // result.
  if (cpu().avx512 && m >= kGemmWideMinRows && n >= kGemmWideMinCols) {
    gemmFanOut<kGemmWideMr, kGemmWideNr>(p, microKernelAvx512, m, n);
    return;
  }
  if (cpu().avx2Fma) {
    gemmFanOut<MR, NR>(p, microKernelAvx2, m, n);
    return;
  }
#endif
  gemmFanOut<MR, NR>(p, microKernelGeneric, m, n);
}

// ------------------------------------------------------- row-op replay
// Replays `count` row ops on columns [c0, c0 + len) of `m`. One portable
// body and one AVX2 clone WITHOUT fma: every rotation rounds its four
// products and two sums separately on either, so the clone only widens
// the vectors and never changes a bit (the sweep's own row loops, which
// this replaces, are unfused too).
#define SHHPASS_ROW_OPS_BODY                                          \
  for (std::size_t o = 0; o < count; ++o) {                           \
    const RowOp& op = ops[o];                                         \
    double* x = m.data + op.x * m.ld + c0;                            \
    double* y = m.data + op.y * m.ld + c0;                            \
    switch (op.kind) {                                                \
      case RowOp::Kind::Rotate: {                                     \
        const double cs = op.cs, sn = op.sn;                          \
        for (std::size_t i = 0; i < len; ++i) {                       \
          const double a = x[i], b = y[i];                            \
          x[i] = cs * a + sn * b;                                     \
          y[i] = -sn * a + cs * b;                                    \
        }                                                             \
        break;                                                        \
      }                                                               \
      case RowOp::Kind::Negate:                                       \
        for (std::size_t i = 0; i < len; ++i) x[i] = -x[i];           \
        break;                                                        \
      case RowOp::Kind::Swap:                                         \
        std::swap_ranges(x, x + len, y);                              \
        break;                                                        \
    }                                                                 \
  }

void replayRowOpsGeneric(const RowOp* ops, std::size_t count, MatrixView m,
                         std::size_t c0, std::size_t len) {
  SHHPASS_ROW_OPS_BODY
}

#ifdef SHHPASS_GEMM_X86_DISPATCH
__attribute__((target("avx2"))) void replayRowOpsAvx2(
    const RowOp* ops, std::size_t count, MatrixView m, std::size_t c0,
    std::size_t len) {
  SHHPASS_ROW_OPS_BODY
}
#endif
#undef SHHPASS_ROW_OPS_BODY

void replayRowOps(const RowOp* ops, std::size_t count, MatrixView m,
                  std::size_t c0, std::size_t len) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  if (cpu().avx2Fma) {  // only AVX2 is used: the clone has no fma
    replayRowOpsAvx2(ops, count, m, c0, len);
    return;
  }
#endif
  replayRowOpsGeneric(ops, count, m, c0, len);
}

}  // namespace

double dotQuad(const double* x, const double* y, std::size_t len) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  static const DotQuadFn fn =
      cpu().avx2Fma ? DotQuadFn{dotQuadAvx2} : DotQuadFn{dotQuadGeneric};
  return fn(x, y, len);
#else
  return dotQuadGeneric(x, y, len);
#endif
}

void axpy(double alpha, const double* x, std::size_t len, double* y) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  static const AxpyFn fn =
      cpu().avx2Fma ? AxpyFn{axpyAvx2} : AxpyFn{axpyGeneric};
  fn(alpha, x, len, y);
#else
  axpyGeneric(alpha, x, len, y);
#endif
}

void planeRot(double cs, double sn, double* x, double* y, std::size_t len) {
#ifdef SHHPASS_GEMM_X86_DISPATCH
  static const PlaneRotFn fn = cpu().avx2Fma ? PlaneRotFn{planeRotAvx2}
                                               : PlaneRotFn{planeRotGeneric};
  fn(cs, sn, x, y, len);
#else
  planeRotGeneric(cs, sn, x, y, len);
#endif
}

void dotRows(const double* a, std::size_t lda, std::size_t rows,
             const double* x, std::size_t len, double* y) {
  // Row blocks of a few cache lines of y each, so workers never write a
  // shared line.
  constexpr std::size_t kRowBlock = 32;
  std::size_t threads = 1;
  const std::shared_ptr<ThreadPool> pool =
      pinPool(rows * len, kDotRowsThreadedFloor, threads);
  fanOut(pool, threads, (rows + kRowBlock - 1) / kRowBlock,
         [=](std::size_t s0, std::size_t s1) {
           const std::size_t end = std::min(rows, s1 * kRowBlock);
           for (std::size_t i = s0 * kRowBlock; i < end; ++i)
             y[i] = dotQuad(a + i * lda, x, len);
         });
}

void applyRowOps(std::span<const RowOp> ops,
                 std::span<const MatrixView> targets) {
  if (ops.empty()) return;
  // The ops regrouped by target (order kept within each), and the blocks
  // numbered target by target; a worker takes a run of blocks.
  std::vector<RowOp> grouped;
  grouped.reserve(ops.size());
  std::vector<std::size_t> firstOp(targets.size() + 1, 0);
  std::vector<std::size_t> firstBlock(targets.size() + 1, 0);
  std::size_t columns = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (const RowOp& op : ops)
      if (op.target == t) grouped.push_back(op);
    firstOp[t + 1] = grouped.size();
    firstBlock[t + 1] = firstBlock[t] + (targets[t].cols +
                                         kRowOpsBlockCols - 1) /
                                            kRowOpsBlockCols;
    columns += targets[t].cols;
  }
  std::size_t threads = 1;
  const std::shared_ptr<ThreadPool> pool =
      pinPool(ops.size() * columns, kRowOpsThreadedFloor, threads);
  fanOut(pool, threads, firstBlock.back(),
         [&](std::size_t b0, std::size_t b1) {
           std::size_t t = 0;
           for (std::size_t blk = b0; blk < b1; ++blk) {
             while (blk >= firstBlock[t + 1]) ++t;
             const MatrixView& m = targets[t];
             const std::size_t c0 = (blk - firstBlock[t]) * kRowOpsBlockCols;
             replayRowOps(grouped.data() + firstOp[t],
                          firstOp[t + 1] - firstOp[t], m, c0,
                          std::min(kRowOpsBlockCols, m.cols - c0));
           }
         });
}

ConstMatrixView ConstMatrixView::block(std::size_t i, std::size_t j,
                                       std::size_t p, std::size_t q) const {
  if (i + p > rows || j + q > cols)
    throw std::invalid_argument("ConstMatrixView::block: out of range");
  // An empty block keeps the base pointer: an empty matrix may have none.
  return {p == 0 || q == 0 ? data : data + i * ld + j, p, q, ld};
}

MatrixView MatrixView::block(std::size_t i, std::size_t j, std::size_t p,
                             std::size_t q) const {
  if (i + p > rows || j + q > cols)
    throw std::invalid_argument("MatrixView::block: out of range");
  // An empty block keeps the base pointer: an empty matrix may have none.
  return {p == 0 || q == 0 ? data : data + i * ld + j, p, q, ld};
}

MatrixView zeroedWorkspace(Matrix& ws, std::size_t rows, std::size_t cols) {
  if (ws.rows() * ws.cols() < rows * cols) ws = Matrix(rows, cols);
  std::fill(ws.data(), ws.data() + rows * cols, 0.0);
  return {ws.data(), rows, cols, cols};
}

void gemmReference(double alpha, const Matrix& a, bool transA,
                   const Matrix& b, bool transB, double beta, Matrix& c) {
  std::size_t m, n, k;
  checkGemmShapes(a, transA, b, transB, c, m, n, k);
  gemmReferenceView(alpha, a, transA, b, transB, beta, c, m, n, k);
}

void gemmBlocked(double alpha, const Matrix& a, bool transA, const Matrix& b,
                 bool transB, double beta, Matrix& c) {
  std::size_t m, n, k;
  checkGemmShapes(a, transA, b, transB, c, m, n, k);
  gemmBlockedView(alpha, a, transA, b, transB, beta, c, m, n, k);
}

void gemm(double alpha, ConstMatrixView a, bool transA, ConstMatrixView b,
          bool transB, double beta, MatrixView c) {
  std::size_t m, n, k;
  checkGemmShapes(a, transA, b, transB, c, m, n, k);
  const std::size_t flopProducts = m * n * k;
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
    gemmReferenceView(alpha, a, transA, b, transB, beta, c, m, n, k);
    return;
  }
  gemmBlockedView(alpha, a, transA, b, transB, beta, c, m, n, k);
}

void gemm(double alpha, const Matrix& a, bool transA, const Matrix& b,
          bool transB, double beta, Matrix& c) {
  gemm(alpha, ConstMatrixView(a), transA, ConstMatrixView(b), transB, beta,
       MatrixView(c));
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
