#include "api/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace shhpass::api {

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

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  jobReady_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  allDone_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
  if (firstError_) {
    std::exception_ptr err = std::exchange(firstError_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      jobReady_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++inFlight_;
    }
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    jobsExecuted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Release this thread's reference before the error is published:
      // once wait() can rethrow it, the last reference to the exception
      // object must not be dropped from a worker (the refcount lives in
      // uninstrumented libstdc++, so TSan would flag the late free).
      if (err) {
        if (!firstError_) firstError_ = std::move(err);
        err = nullptr;
      }
      --inFlight_;
      if (queue_.empty() && inFlight_ == 0) allDone_.notify_all();
    }
  }
}

}  // namespace shhpass::api
