#include "linalg/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace shhpass::linalg {

struct ThreadPool::Latch {
  std::size_t pending = 0;         // guarded by mu_
  std::exception_ptr firstError;   // guarded by mu_
  std::condition_variable done;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  jobReady_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(std::vector<std::function<void()>> jobs) {
  if (jobs.empty()) return;
  Latch latch;
  std::unique_lock<std::mutex> lock(mu_);
  latch.pending = jobs.size();
  for (std::function<void()>& fn : jobs)
    queue_.push_back(Job{std::move(fn), &latch});
  jobReady_.notify_all();
  latch.done.wait(lock, [&latch] { return latch.pending == 0; });
  if (latch.firstError) {
    std::exception_ptr err = std::exchange(latch.firstError, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      jobReady_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    try {
      job.fn();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Release this thread's reference before the error is published:
    // once run() can rethrow it, the last reference to the exception
    // object must not be dropped from a worker (the refcount lives in
    // uninstrumented libstdc++, so TSan would flag the late free).
    if (err) {
      if (!job.latch->firstError) job.latch->firstError = std::move(err);
      err = nullptr;
    }
    // Notify under the lock: the latch lives on the caller's stack and
    // dies as soon as run() sees pending == 0.
    if (--job.latch->pending == 0) job.latch->done.notify_one();
  }
}

}  // namespace shhpass::linalg
