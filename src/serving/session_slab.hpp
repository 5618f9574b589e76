// SessionSlab: compact storage for millions of mostly-idle sessions.
//
// A serving fleet keeps per-session state (at least a stable id) for every
// client that ever opened a session, but only a tiny fraction of them are
// active at any instant.
// Storing each record behind its own heap allocation — the obvious
// map<id, unique_ptr<Session>> — costs an allocator round-trip per
// open/close and scatters idle records across the heap. The slab instead
// keeps all records in flat arrays (one contiguous block, reallocated
// geometrically) and hands out generation-checked handles: a freed slot is
// recycled for the next insert, and the generation counter stored next to
// the slot invalidates every handle that pointed at the previous occupant.
// Lookup is two array indexations plus one generation compare — no hashing,
// no pointer chase — and a stale handle from a closed session can never
// alias the record that reused its slot.
//
// The slab is deliberately dumb about its payload: it stores a small POD
// `SessionRecord` (the session id). Heavier per-request state lives in the
// shard's queues for exactly as long as a request is in flight. Not
// thread-safe; each server worker owns the slab slice for its shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace vibguard::serving {

/// Generation-checked reference to a slab slot. Value type, trivially
/// copyable; `generation == 0` is the universal null handle. Generations
/// are odd while the slot is live and even while it is free, so a handle
/// captured before a slot was recycled fails the generation compare.
struct SessionHandle {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  bool is_null() const { return generation == 0; }

  friend bool operator==(SessionHandle a, SessionHandle b) {
    return a.index == b.index && a.generation == b.generation;
  }
  friend bool operator!=(SessionHandle a, SessionHandle b) {
    return !(a == b);
  }
};

/// The per-session record the slab stores. Small and flat on purpose: this
/// is what "millions of idle sessions" are made of.
struct SessionRecord {
  std::uint64_t session_id = 0;  ///< caller-chosen stable identity
};

class SessionSlab {
 public:
  /// Inserts a record and returns its handle. Reuses the most recently
  /// freed slot (LIFO — the hot slot is the cache-warm one) or grows the
  /// flat arrays geometrically when none is free.
  SessionHandle insert(const SessionRecord& record);

  /// Frees the slot behind `handle`. Returns false (and does nothing) when
  /// the handle is stale or null; freeing bumps the slot's generation so
  /// every outstanding handle to it goes stale atomically.
  bool erase(SessionHandle handle);

  /// The live record behind `handle`, or nullptr when the handle is stale
  /// or null. The pointer is invalidated by the next insert() (growth can
  /// reallocate the arrays) — dereference immediately, don't store it.
  SessionRecord* get(SessionHandle handle);
  const SessionRecord* get(SessionHandle handle) const;

  /// Live record count / allocated slot count.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Test-only: jumps a live slot's generation to `generation` (parity
  /// must stay odd) and returns the rewritten handle. Exists so the
  /// 2^31-reuse generation wraparound can be exercised without two
  /// billion insert/erase cycles.
  SessionHandle set_generation_for_test(SessionHandle handle,
                                        std::uint32_t generation);

 private:
  std::vector<SessionRecord> slots_;
  std::vector<std::uint32_t> generations_;  ///< odd = live, even = free
  std::vector<std::uint32_t> free_;         ///< LIFO recycle stack
  std::size_t size_ = 0;
};

}  // namespace vibguard::serving
