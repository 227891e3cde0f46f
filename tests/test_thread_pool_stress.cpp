// Concurrency stress suite for linalg::ThreadPool and its two production
// consumers: the blocked-gemm column-panel path and the batch analyzer.
// This suite exists primarily to be run under ThreadSanitizer (the `tsan`
// CI job builds with -DSHHPASS_TSAN=ON and SHHPASS_GEMM_THREADS=3): every
// test doubles as a race detector target, and several pin the contract
// documented in linalg/thread_pool.hpp — concurrent fan-outs wait for and
// rethrow only their own jobs, a throwing job never poisons the pool, and
// setGemmThreads is safe against in-flight gemms.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/analyzer.hpp"
#include "circuits/generators.hpp"
#include "linalg/blas.hpp"
#include "linalg/thread_pool.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using api::AnalysisReport;
using api::AnalysisRequest;
using api::AnalyzerOptions;
using api::PassivityAnalyzer;
using api::Result;
using linalg::Matrix;
using linalg::ThreadPool;
using testing::randomMatrix;

/// Exact bitwise matrix equality (the determinism contract is bitwise,
/// so approxEqual would be too weak here).
bool bitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

/// Smallest square size whose m*n*k crosses the threaded-gemm floor, so
/// the column-panel fan-out actually engages.
constexpr std::size_t kThreadedGemmN = 224;
static_assert(kThreadedGemmN * kThreadedGemmN * kThreadedGemmN >=
              linalg::kGemmThreadedFlopFloor);

/// RAII guard: every test leaves the process-wide kernel pool serial.
struct SerialGemmAtExit {
  ~SerialGemmAtExit() { linalg::setGemmThreads(1); }
};

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolStress, ConcurrentFanOutsWaitForAndRethrowOnlyTheirOwnJobs) {
  // Two callers share one pool, as runBatch workers share the kernel pool.
  // One job of the thrower's fan-out throws while the other caller's slow
  // jobs are still queued. Only the thrower's run() may rethrow, and each
  // run() returns only after every one of its own jobs has run.
  ThreadPool pool(3);
  static constexpr std::size_t kJobs = 48;
  constexpr std::size_t kRounds = 40;
  std::size_t throwerRethrew = 0, throwerIncomplete = 0;
  std::size_t otherRethrew = 0, otherIncomplete = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::atomic<std::size_t> ranThrower{0}, ranOther{0};
    std::thread thrower([&] {
      std::vector<std::function<void()>> jobs;
      for (std::size_t i = 0; i < kJobs; ++i)
        jobs.emplace_back([&ranThrower, i] {
          ranThrower.fetch_add(1);
          if (i == kJobs / 4) throw std::runtime_error("panel failure");
        });
      try {
        pool.run(std::move(jobs));
      } catch (const std::runtime_error&) {
        ++throwerRethrew;
      }
      if (ranThrower.load() != kJobs) ++throwerIncomplete;
    });
    std::thread other([&] {
      std::vector<std::function<void()>> jobs;
      for (std::size_t i = 0; i < kJobs; ++i)
        jobs.emplace_back([&ranOther] {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          ranOther.fetch_add(1);
        });
      try {
        pool.run(std::move(jobs));
      } catch (...) {
        ++otherRethrew;
      }
      if (ranOther.load() != kJobs) ++otherIncomplete;
    });
    thrower.join();
    other.join();
  }
  EXPECT_EQ(throwerRethrew, kRounds);
  EXPECT_EQ(throwerIncomplete, 0u);
  EXPECT_EQ(otherRethrew, 0u);
  EXPECT_EQ(otherIncomplete, 0u);

  // A throwing job never poisons the pool: the next fan-out runs clean.
  std::atomic<std::size_t> ran{0};
  std::vector<std::function<void()>> jobs(kJobs, [&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.run(std::move(jobs)));
  EXPECT_EQ(ran.load(), kJobs);
}

// ------------------------------------------------------- gemm kernel pool

TEST(ThreadPoolStress, GemmThreadLifecycleBypassesBitIdentically) {
  SerialGemmAtExit cleanup;
  const Matrix a = randomMatrix(kThreadedGemmN, kThreadedGemmN, 11);
  const Matrix b = randomMatrix(kThreadedGemmN, kThreadedGemmN, 12);

  auto blockedProduct = [&] {
    Matrix c(kThreadedGemmN, kThreadedGemmN);
    linalg::gemmBlocked(1.0, a, false, b, false, 0.0, c);
    return c;
  };

  linalg::setGemmThreads(1);  // structural bypass: no pool exists
  EXPECT_EQ(linalg::gemmThreads(), 1u);
  const Matrix serial = blockedProduct();

  linalg::setGemmThreads(3);
  EXPECT_EQ(linalg::gemmThreads(), 3u);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));

  linalg::setGemmThreads(7);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));

  // t == 0 resolves to hardware concurrency; whatever that is, the result
  // must stay bit-identical to the serial bypass.
  linalg::setGemmThreads(0);
  EXPECT_GE(linalg::gemmThreads(), 1u);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));

  linalg::setGemmThreads(1);
  EXPECT_EQ(linalg::gemmThreads(), 1u);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));
}

TEST(ThreadPoolStress, SetGemmThreadsRacingInFlightGemms) {
  // Reconfiguring the kernel pool while gemms are in flight must neither
  // race (TSan) nor change a single bit of any product: each gemm pins
  // the pool it started with.
  SerialGemmAtExit cleanup;
  const Matrix a = randomMatrix(kThreadedGemmN, kThreadedGemmN, 21);
  const Matrix b = randomMatrix(kThreadedGemmN, kThreadedGemmN, 22);

  linalg::setGemmThreads(1);
  Matrix expected(kThreadedGemmN, kThreadedGemmN);
  linalg::gemmBlocked(1.0, a, false, b, false, 0.0, expected);

  linalg::setGemmThreads(3);
  std::atomic<bool> stop{false};
  std::thread reconfigurer([&stop] {
    const std::size_t settings[] = {2, 3, 1, 4, 3};
    std::size_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      linalg::setGemmThreads(settings[k % 5]);
      ++k;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> gemmers;
  for (std::size_t t = 0; t < 2; ++t) {
    gemmers.emplace_back([&] {
      for (std::size_t rep = 0; rep < 6; ++rep) {
        Matrix c(kThreadedGemmN, kThreadedGemmN);
        linalg::gemmBlocked(1.0, a, false, b, false, 0.0, c);
        if (!bitwiseEqual(c, expected)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : gemmers) t.join();
  stop.store(true);
  reconfigurer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------------------- batch layer

TEST(ThreadPoolStress, RunBatchUnderOversubscription) {
  // More batch workers than cores over a threaded kernel pool: the
  // workers and the sequential twins below share that one pool, and every
  // report must still decision-match its twin.
  SerialGemmAtExit cleanup;
  linalg::setGemmThreads(3);

  std::vector<AnalysisRequest> batch;
  for (std::size_t k = 0; k < 12; ++k) {
    AnalysisRequest req;
    req.id = "stress-" + std::to_string(k);
    req.system =
        circuits::makeBenchmarkModel(15 + 2 * (k % 4), /*impulsive=*/k % 2 == 0);
    batch.push_back(std::move(req));
  }

  AnalyzerOptions opts;
  opts.threads = 4 * std::max(1u, std::thread::hardware_concurrency());
  PassivityAnalyzer analyzer(opts);

  std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << batch[i].id << ": " << results[i].status().toString();
    Result<AnalysisReport> single = analyzer.analyze(batch[i]);
    ASSERT_TRUE(single.ok()) << batch[i].id;
    EXPECT_TRUE(results[i]->decisionEquals(*single)) << batch[i].id;
  }
}

}  // namespace
}  // namespace shhpass
