#include "common/thread_pool.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace vibguard {
namespace {

thread_local bool tls_pool_worker = false;

}  // namespace

bool ThreadPool::on_worker() { return tls_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads < 2) return;  // serial fallback: run inline
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_indexed(
      count, [&fn](std::size_t /*worker*/, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for_indexed(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (workers_.empty() || count < 2) {
    // Same exception semantics as the threaded path: remember the first
    // failure, drain the remaining iterations, rethrow at the join point.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(0, i);
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  job_count_ = count;
  next_.store(0, std::memory_order_relaxed);
  idle_workers_ = 0;
  first_error_ = nullptr;
  ++generation_;
  start_cv_.notify_all();
  done_cv_.wait(lock, [this] { return idle_workers_ == workers_.size(); });
  job_ = nullptr;
  if (first_error_ != nullptr) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  tls_pool_worker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const auto* fn = job_;
    const std::size_t count = job_count_;
    lock.unlock();
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*fn)(worker_id, i);
      } catch (...) {
        // Remember the first failure and drain the remaining iterations so
        // the range still completes deterministically.
        std::lock_guard<std::mutex> guard(mutex_);
        if (first_error_ == nullptr) first_error_ = std::current_exception();
      }
    }
    lock.lock();
    if (++idle_workers_ == workers_.size()) done_cv_.notify_all();
  }
}

std::size_t recommended_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  const std::size_t fallback = hc == 0 ? 1 : static_cast<std::size_t>(hc);
  const char* env = std::getenv("VIBGUARD_THREADS");
  if (env == nullptr) return fallback;
  // Guard against every malformed shape — non-numeric, trailing junk,
  // negative, zero, or overflowing strtol (ERANGE) — and against absurd
  // but representable counts that would exhaust the process spawning
  // threads. All of them fall back to the hardware default with one
  // warning rather than undefined behavior.
  constexpr long kMaxThreads = 4096;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || value <= 0 ||
      value > kMaxThreads) {
    std::fprintf(stderr,
                 "vibguard: ignoring invalid VIBGUARD_THREADS='%s' "
                 "(want an integer in 1..%ld); using %zu thread(s)\n",
                 env, kMaxThreads, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

}  // namespace vibguard
