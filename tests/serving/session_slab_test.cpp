#include "serving/session_slab.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vibguard::serving {
namespace {

SessionRecord record(std::uint64_t id) {
  SessionRecord r;
  r.session_id = id;
  return r;
}

TEST(SessionSlabTest, DefaultHandleIsNull) {
  SessionHandle handle;
  EXPECT_TRUE(handle.is_null());
  SessionSlab slab;
  EXPECT_EQ(slab.get(handle), nullptr);
  EXPECT_FALSE(slab.erase(handle));
}

TEST(SessionSlabTest, InsertLookupRoundTrip) {
  SessionSlab slab;
  const SessionHandle a = slab.insert(record(100));
  const SessionHandle b = slab.insert(record(200));
  EXPECT_FALSE(a.is_null());
  EXPECT_NE(a, b);
  EXPECT_EQ(slab.size(), 2u);

  SessionRecord* ra = slab.get(a);
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->session_id, 100u);
  ra->session_id = 101;  // mutable through the handle
  EXPECT_EQ(slab.get(a)->session_id, 101u);

  const SessionSlab& cslab = slab;
  const SessionRecord* rb = cslab.get(b);
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->session_id, 200u);
}

TEST(SessionSlabTest, EraseInvalidatesEveryOutstandingHandle) {
  SessionSlab slab;
  const SessionHandle a = slab.insert(record(100));
  const SessionHandle copy = a;  // handles are value types
  EXPECT_TRUE(slab.erase(a));
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_EQ(slab.get(a), nullptr);
  EXPECT_EQ(slab.get(copy), nullptr);
  EXPECT_FALSE(slab.erase(a));  // double-erase is a clean no-op
}

TEST(SessionSlabTest, RecycledSlotDoesNotAliasStaleHandle) {
  SessionSlab slab;
  const SessionHandle old = slab.insert(record(100));
  ASSERT_TRUE(slab.erase(old));
  // LIFO recycling: the next insert reuses the freed slot...
  const SessionHandle fresh = slab.insert(record(999));
  EXPECT_EQ(fresh.index, old.index);
  EXPECT_NE(fresh.generation, old.generation);
  // ...and the stale handle must see nothing, not the new occupant.
  EXPECT_EQ(slab.get(old), nullptr);
  ASSERT_NE(slab.get(fresh), nullptr);
  EXPECT_EQ(slab.get(fresh)->session_id, 999u);
  EXPECT_EQ(slab.size(), 1u);
}

TEST(SessionSlabTest, GrowsAndSurvivesChurn) {
  SessionSlab slab;
  std::vector<SessionHandle> handles;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    handles.push_back(slab.insert(record(i)));
  }
  EXPECT_EQ(slab.size(), 1000u);
  EXPECT_GE(slab.capacity(), 1000u);
  // Erase the even ids, reinsert as fresh sessions, verify nothing aliases.
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    ASSERT_TRUE(slab.erase(handles[i]));
  }
  EXPECT_EQ(slab.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    slab.insert(record(10'000 + i));
  }
  EXPECT_EQ(slab.size(), 1000u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const SessionRecord* r = slab.get(handles[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(r, nullptr) << i;
    } else {
      ASSERT_NE(r, nullptr) << i;
      EXPECT_EQ(r->session_id, i);
    }
  }
}

TEST(SessionSlabTest, GenerationWraparoundRetiresSlotInsteadOfAliasing) {
  SessionSlab slab;
  // Seed slot 0, then jump its generation to the maximum odd value — the
  // state it would reach after 2^31 - 1 insert/erase reuses.
  SessionHandle h = slab.insert(record(100));
  h = slab.set_generation_for_test(h, UINT32_MAX);
  ASSERT_NE(slab.get(h), nullptr);
  EXPECT_EQ(slab.get(h)->session_id, 100u);

  // Without the guard, erase would wrap the generation to 0 and the next
  // insert in the slot would mint generation 1 — the *first* generation
  // the slot ever handed out, resurrecting any ancient handle that kept
  // it. The guard retires the slot instead.
  EXPECT_TRUE(slab.erase(h));
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_EQ(slab.get(h), nullptr);

  const SessionHandle ancient{h.index, 1};  // a hypothetical gen-1 survivor
  const SessionHandle fresh = slab.insert(record(200));
  EXPECT_NE(fresh.index, h.index) << "retired slot must never be recycled";
  EXPECT_EQ(slab.get(ancient), nullptr)
      << "wraparound resurrected a first-generation handle";
  EXPECT_EQ(slab.get(h), nullptr);
  ASSERT_NE(slab.get(fresh), nullptr);
  EXPECT_EQ(slab.get(fresh)->session_id, 200u);
}

}  // namespace
}  // namespace vibguard::serving
