#include "serving/session_slab.hpp"

#include "common/error.hpp"

namespace vibguard::serving {

SessionHandle SessionSlab::insert(const SessionRecord& record) {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    VIBGUARD_REQUIRE(slots_.size() < UINT32_MAX, "session slab full");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    generations_.push_back(0);
  }
  slots_[index] = record;
  // Free slots carry an even generation; bumping to odd marks the slot
  // live and distinguishes this occupant from every previous one.
  ++generations_[index];
  ++size_;
  return SessionHandle{index, generations_[index]};
}

bool SessionSlab::erase(SessionHandle handle) {
  if (get(handle) == nullptr) return false;
  // Back to even: every outstanding handle with the old odd generation now
  // fails the compare.
  if (generations_[handle.index] == UINT32_MAX) {
    // Generation wraparound guard: incrementing the maximum odd generation
    // would wrap to 0, and the next insert would mint generation 1 —
    // resurrecting the slot's very first handles after 2^31 reuses. The
    // slot is retired instead: generation 0 (the universal null/free
    // state) and never pushed onto the recycle stack, so no handle can
    // ever match it again. Capacity loses one slot every 2^31 reuses,
    // which is free compared to a stale handle aliasing a live session.
    generations_[handle.index] = 0;
  } else {
    ++generations_[handle.index];
    free_.push_back(handle.index);
  }
  --size_;
  return true;
}

SessionRecord* SessionSlab::get(SessionHandle handle) {
  if (handle.is_null() || handle.index >= slots_.size() ||
      generations_[handle.index] != handle.generation ||
      (handle.generation & 1u) == 0) {
    return nullptr;
  }
  return &slots_[handle.index];
}

const SessionRecord* SessionSlab::get(SessionHandle handle) const {
  return const_cast<SessionSlab*>(this)->get(handle);
}

SessionHandle SessionSlab::set_generation_for_test(SessionHandle handle,
                                                   std::uint32_t generation) {
  VIBGUARD_REQUIRE(get(handle) != nullptr,
                   "set_generation_for_test needs a live handle");
  VIBGUARD_REQUIRE((generation & 1u) != 0,
                   "live slot generations must stay odd");
  generations_[handle.index] = generation;
  return SessionHandle{handle.index, generation};
}

}  // namespace vibguard::serving
