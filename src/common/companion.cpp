#include "common/companion.hpp"

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/alloc_counter.hpp"

namespace vibguard {

struct Companion::State {
  std::mutex mutex;
  std::condition_variable posted;    ///< a task arrived, or stop
  std::condition_variable finished;  ///< the task returned
  void (*fn)(void*) = nullptr;       ///< the pending task; null when idle
  void* task = nullptr;
  bool done = false;
  bool stop = false;
  std::exception_ptr error;
  std::uint64_t allocations = 0;
  std::thread thread;  ///< last, so it starts after the fields above exist

  State() : thread([this] { loop(); }) {}
  State(const State&) = delete;  // the thread holds `this`
  State& operator=(const State&) = delete;

  ~State() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    posted.notify_one();
    thread.join();
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      posted.wait(lock, [this] { return stop || fn != nullptr; });
      if (fn == nullptr) return;  // stop, with no task pending
      void (*const f)(void*) = fn;
      void* const t = task;
      lock.unlock();
      const std::uint64_t before = allocation_count();
      std::exception_ptr caught;
      try {
        f(t);
      } catch (...) {
        caught = std::current_exception();
      }
      const std::uint64_t made = allocation_count() - before;
      lock.lock();
      fn = nullptr;
      error = std::move(caught);
      allocations = made;
      done = true;
      finished.notify_one();
    }
  }
};

Companion::Companion() = default;
Companion::~Companion() = default;
Companion::Companion(Companion&&) noexcept = default;
Companion& Companion::operator=(Companion&&) noexcept = default;

void Companion::start(void (*fn)(void*), void* task) {
  if (state_ == nullptr) state_ = std::make_unique<State>();
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->fn = fn;
    state_->task = task;
    state_->done = false;
  }
  state_->posted.notify_one();
}

std::exception_ptr Companion::finish() noexcept {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->finished.wait(lock, [this] { return state_->done; });
  add_allocations(state_->allocations);
  return std::exchange(state_->error, nullptr);
}

}  // namespace vibguard
