// Fixed-size worker pool behind the threaded gemm kernel (linalg/blas.cpp).
// Deliberately small: a mutex-guarded FIFO of std::function jobs, workers
// joined on destruction, and one blocking fan-out call, run(), that waits
// for its own jobs only.
//
// ## Threading contract (machine-checked by the `tsan` CI job and
// ## tests/test_thread_pool_stress.cpp)
//
//   * run() may be called concurrently from any number of threads (the
//     runBatch workers share the one kernel pool). Each call owns a latch:
//     its pending-job count and its first-error slot. A call returns once
//     ITS jobs have finished, whatever other callers still have queued,
//     and rethrows only an exception one of ITS jobs threw. Every shared
//     field (queue_, stopping_, each latch) is guarded by mu_.
//   * A job MAY throw. The pool is never poisoned by a throwing job: the
//     worker catches the exception (an escaping one would std::terminate
//     the process), records the first one in the job's latch, and keeps
//     serving the queue; the call's other jobs still run. The latch is
//     per call because with one pool-wide error slot and barrier, one
//     caller's failed panel would be rethrown from another caller's
//     wait, and the failing gemm would return with that panel of C
//     unwritten.
//   * Destruction DRAINS: jobs already queued when the destructor runs
//     all execute before the workers join.
//   * A worker must NOT call run() on its own pool: with every worker
//     blocked in run(), nothing would serve the queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shhpass::linalg {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run every job on the pool's workers and block until all of them have
  /// finished. Rethrows the first exception one of these jobs threw; the
  /// pool stays fully usable afterwards. Must not be called from a worker
  /// of this pool.
  void run(std::vector<std::function<void()>> jobs);

 private:
  struct Latch;  // one run() call's pending count and first error
  struct Job {
    std::function<void()> fn;
    Latch* latch = nullptr;
  };

  void workerLoop();

  std::mutex mu_;
  std::condition_variable jobReady_;
  std::deque<Job> queue_;         // guarded by mu_
  std::vector<std::thread> workers_;
  bool stopping_ = false;         // guarded by mu_
};

}  // namespace shhpass::linalg
