#include "common/companion.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_counter.hpp"

namespace vibguard {
namespace {

TEST(CompanionTest, RunsBothTasksOnDifferentThreads) {
  Companion companion;
  std::thread::id mine_id, theirs_id;
  auto mine = [&] { mine_id = std::this_thread::get_id(); };
  auto theirs = [&] { theirs_id = std::this_thread::get_id(); };
  for (int round = 0; round < 3; ++round) {
    companion.run(mine, theirs);
    EXPECT_EQ(mine_id, std::this_thread::get_id());
    EXPECT_NE(theirs_id, std::this_thread::get_id());
  }
}

TEST(CompanionTest, ThrowingTaskIsRethrownAtJoinAndNextTaskRuns) {
  Companion companion;
  bool mine_ran = false;
  auto mine = [&] { mine_ran = true; };
  auto throws = [] { throw std::runtime_error("companion task failed"); };
  EXPECT_THROW(companion.run(mine, throws), std::runtime_error);
  EXPECT_TRUE(mine_ran);

  int calls = 0;
  auto counts = [&] { ++calls; };
  companion.run(mine, counts);
  companion.run(mine, counts);
  EXPECT_EQ(calls, 2);
}

TEST(CompanionTest, CallerExceptionWaitsForTheCompanionAndWins) {
  Companion companion;
  std::atomic<bool> theirs_done{false};
  auto mine = [] { throw std::logic_error("caller task failed"); };
  auto slow = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    theirs_done = true;
  };
  EXPECT_THROW(companion.run(mine, slow), std::logic_error);
  EXPECT_TRUE(theirs_done);  // unwinding began only after it returned

  // When both throw, the caller's exception is the one reported, and the
  // companion's is dropped rather than leaking into the next run.
  auto also_throws = [] { throw std::runtime_error("companion task failed"); };
  EXPECT_THROW(companion.run(mine, also_throws), std::logic_error);
  auto quiet = [] {};
  EXPECT_NO_THROW(companion.run(quiet, quiet));
}

TEST(CompanionTest, CompanionAllocationsCountOnTheCaller) {
  Companion companion;
  auto quiet = [] {};
  companion.run(quiet, quiet);  // starts the thread

  // The handoff itself allocates nothing.
  const std::uint64_t before_quiet = allocation_count();
  for (int i = 0; i < 10; ++i) companion.run(quiet, quiet);
  EXPECT_EQ(allocation_count() - before_quiet, 0u);

  std::vector<std::unique_ptr<int>> made;
  auto allocates = [&] {
    for (int i = 0; i < 5; ++i) made.push_back(std::make_unique<int>(i));
  };
  made.reserve(5);
  const std::uint64_t before = allocation_count();
  companion.run(quiet, allocates);
  EXPECT_EQ(allocation_count() - before, 5u);
}

// Threads that have run tag_thread() and not yet exited. A thread's
// thread_local destructors finish before its join returns, so the count
// is exact right after a join.
std::atomic<int> tagged_threads{0};

struct ThreadTag {
  ThreadTag() { ++tagged_threads; }
  ~ThreadTag() { --tagged_threads; }
};

void tag_thread() { thread_local const ThreadTag tag; }

#ifdef __linux__
std::size_t listed_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}
#endif

TEST(CompanionTest, ThreadStartsOnFirstRunAndJoinsOnDestruction) {
  auto quiet = [] {};
  std::thread::id first, again, fresh;
  auto tag_first = [&] {
    tag_thread();
    first = std::this_thread::get_id();
  };
  auto same = [&] { again = std::this_thread::get_id(); };
  auto tag_fresh = [&] {
    tag_thread();
    fresh = std::this_thread::get_id();
  };
  {
#ifdef __linux__
    // A thread joined just before can stay listed for a moment after its
    // join, so only a rise in the count would show a spawn.
    const std::size_t before = listed_threads();
    Companion companion;
    EXPECT_LE(listed_threads(), before);  // nothing spawned until first use
#else
    Companion companion;
#endif
    companion.run(quiet, tag_first);
    EXPECT_EQ(tagged_threads, 1);

    // A moved-to companion owns the thread; the moved-from one starts a
    // fresh thread on its next run.
    Companion moved = std::move(companion);
    moved.run(quiet, same);
    EXPECT_EQ(again, first);
    companion.run(quiet, tag_fresh);
    EXPECT_NE(fresh, first);
    EXPECT_EQ(tagged_threads, 2);
  }
  EXPECT_EQ(tagged_threads, 0);  // destruction joined both threads
}

}  // namespace
}  // namespace vibguard
