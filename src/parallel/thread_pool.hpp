// Static thread pool used by every parallel loop in the library.
//
// Design notes (see /opt guides: explicit parallelism, OpenMP-style static
// scheduling): the pool partitions an index range into contiguous blocks, one
// per worker, like `omp parallel for schedule(static)`. There is no task
// queue or stealing — the kernels in this library are data-parallel with
// predictable per-element cost once blocked, and static partitioning avoids
// queue contention on many-core hosts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace cstf {

/// Fixed-size worker pool executing blocked index ranges.
///
/// A single process-wide pool (see `global_pool()`) is shared by all modules
/// so the library never oversubscribes the machine. Any number of threads
/// may call run(): external callers take turns (one region owns the workers
/// at a time), and nested calls from inside a region run sequentially on the
/// calling thread, matching OpenMP's default.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 1` creates no worker
  /// threads at all; every run() executes inline on the caller.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Runs `fn(worker_index)` on every worker (including the caller as worker
  /// 0) and returns when all have finished. A concurrent external caller
  /// waits until the region in flight has finished. `fn` must be re-entrant
  /// across workers. Exceptions thrown inside `fn` are captured and the
  /// first one is rethrown on the caller. Every worker runs `fn` in the
  /// caller's floating-point mode (common/fp_mode.hpp), so results do not
  /// depend on which thread computes which element.
  void run(const std::function<void(std::size_t)>& fn);

  /// True while the calling thread is inside a run() region; used to detect
  /// (and serialize) nested parallelism.
  static bool in_parallel_region();

 private:
  void worker_loop(std::size_t worker_index);

  std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex run_mu_;  // held by the external caller that owns the workers
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint32_t job_fp_mode_ = 0;  // the caller's fp_mode(), for the workers
  std::size_t epoch_ = 0;        // increments per run(); wakes workers
  std::size_t remaining_ = 0;    // workers still executing the current job
  bool shutting_down_ = false;
  std::exception_ptr first_error_;
};

/// Process-wide pool. Sized from CSTF_THREADS if set, otherwise
/// std::thread::hardware_concurrency(). Constructed on first use.
ThreadPool& global_pool();

/// Number of workers in the global pool.
std::size_t global_thread_count();

}  // namespace cstf
