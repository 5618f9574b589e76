// Fixed-size thread pool for data-parallel loops.
//
// The pool targets VibGuard's evaluation workloads: score N independent
// trials over a fixed worker set. parallel_for hands out indices through an
// atomic cursor, so work is balanced without per-task queue traffic, and the
// calling thread blocks until the whole range is done. A pool constructed
// with fewer than two threads runs everything inline (the serial fallback),
// which keeps single-core and VIBGUARD_THREADS=1 runs free of thread
// overhead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vibguard {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; fewer than two means no workers and
  /// inline execution.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 in serial-fallback mode).
  std::size_t num_threads() const { return workers_.size(); }

  /// True on a pool's worker thread (of any pool). Work there already has
  /// sibling workers filling the cores, so it should not fan out further.
  static bool on_worker();

  /// Runs fn(i) for every i in [0, count) and blocks until all calls have
  /// returned. Iterations may run in any order and on any worker; the first
  /// exception thrown by fn is rethrown here after the loop drains — every
  /// iteration is attempted exactly once regardless of earlier failures,
  /// in the serial fallback as well as the threaded path, and an exception
  /// never reaches std::terminate.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Like parallel_for, but fn also receives the id of the worker running
  /// the iteration — a stable value in [0, max(1, num_threads())) — so
  /// callers can hand each worker its own reusable workspace. In the serial
  /// fallback every iteration runs inline with worker id 0.
  void parallel_for_indexed(
      std::size_t count,
      const std::function<void(std::size_t worker, std::size_t i)>& fn);

 private:
  void worker_loop(std::size_t worker_id);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;  ///< bumped once per parallel_for
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::atomic<std::size_t> next_{0};   ///< next unclaimed index
  std::size_t idle_workers_ = 0;       ///< workers finished with current job
  std::exception_ptr first_error_;
};

/// Worker count for parallel evaluation: the VIBGUARD_THREADS environment
/// variable when set to a positive integer, otherwise the hardware
/// concurrency (at least 1).
std::size_t recommended_threads();

}  // namespace vibguard
