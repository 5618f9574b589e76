// A companion thread: one helper thread that its owner hands one task at a
// time, to run beside the owner's own work.
//
// The staged pipeline uses it to capture its two vibration channels at
// once: the scoring thread realizes the VA channel while its Workspace's
// companion realizes the wearable channel (core/stages.cpp). The thread
// starts on first use, so an owner that never splits never spawns one, and
// it is joined when the Companion is destroyed. The handoff allocates
// nothing: a task is a function pointer and an object pointer, passed under
// a mutex. Heap allocations the task makes count toward the owner's
// allocation_count() (common/alloc_counter.hpp), so a score's allocation
// tally still covers both channels.
//
// A Companion is not thread-safe: one owner thread calls run().
#pragma once

#include <exception>
#include <memory>

namespace vibguard {

class Companion {
 public:
  Companion();
  ~Companion();  ///< joins the thread, if it was started
  Companion(Companion&&) noexcept;
  Companion& operator=(Companion&&) noexcept;

  /// Runs `theirs()` on the companion thread while `mine()` runs on the
  /// calling thread, and returns once both have returned. Allocations made
  /// by `theirs` are added to the calling thread's allocation_count(). If
  /// `mine` throws, run() still waits for `theirs` — the two may share
  /// data the caller's unwinding would release — and rethrows the caller's
  /// exception; otherwise it rethrows what `theirs` threw. Either way the
  /// companion is ready for the next run().
  template <class Mine, class Theirs>
  void run(Mine& mine, Theirs& theirs) {
    start([](void* task) { (*static_cast<Theirs*>(task))(); }, &theirs);
    try {
      mine();
    } catch (...) {
      finish();
      throw;
    }
    if (std::exception_ptr error = finish()) std::rethrow_exception(error);
  }

 private:
  struct State;

  void start(void (*fn)(void*), void* task);
  /// Waits for the task, counts its allocations on the calling thread and
  /// returns what it threw.
  std::exception_ptr finish() noexcept;

  std::unique_ptr<State> state_;  ///< null until first use, and when moved from
};

}  // namespace vibguard
