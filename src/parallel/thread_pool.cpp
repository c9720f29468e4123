#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fp_mode.hpp"

namespace cstf {

namespace {
thread_local bool tls_in_parallel = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(std::max<std::size_t>(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (std::size_t i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_parallel_region() { return tls_in_parallel; }

void ThreadPool::run(const std::function<void(std::size_t)>& fn) {
  if (num_threads_ == 1 || tls_in_parallel) {
    // Inline / nested execution: run every "worker" sequentially so callers
    // that partition work by worker index still cover the whole range.
    const bool was_parallel = tls_in_parallel;
    tls_in_parallel = true;
    try {
      for (std::size_t i = 0; i < num_threads_; ++i) fn(i);
    } catch (...) {
      tls_in_parallel = was_parallel;
      throw;
    }
    tls_in_parallel = was_parallel;
    return;
  }

  // External callers take turns: the job/epoch handshake below serves one
  // region at a time.
  std::lock_guard<std::mutex> region(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_fp_mode_ = fp_mode();
    first_error_ = nullptr;
    remaining_ = num_threads_ - 1;
    ++epoch_;
  }
  cv_start_.notify_all();

  // The caller participates as worker 0. Its exception goes through the
  // same first-recorded-wins slot as the workers' so no error is ever
  // silently dropped and exactly one — the first recorded — propagates.
  tls_in_parallel = true;
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  tls_in_parallel = false;

  std::unique_lock<std::mutex> lock(mu_);
  if (caller_error && !first_error_) first_error_ = caller_error;
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  // Always take-and-clear so a recorded error can never dangle into (or be
  // re-reported by) a later run.
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::uint32_t mode = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock,
                     [&] { return shutting_down_ || epoch_ != seen_epoch; });
      if (shutting_down_) return;
      seen_epoch = epoch_;
      job = job_;
      mode = job_fp_mode_;
    }
    set_fp_mode(mode);
    tls_in_parallel = true;
    std::exception_ptr error;
    try {
      (*job)(worker_index);
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_parallel = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = error;
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    const auto hw = static_cast<std::int64_t>(std::thread::hardware_concurrency());
    const std::int64_t n = env_int("CSTF_THREADS", hw > 0 ? hw : 1);
    return static_cast<std::size_t>(std::max<std::int64_t>(1, n));
  }());
  return pool;
}

std::size_t global_thread_count() { return global_pool().num_threads(); }

}  // namespace cstf
