#include "util/lru.h"

#include <gtest/gtest.h>

#include <string>

namespace aw4a {
namespace {

TEST(LruMap, InsertTouchEvictOrder) {
  LruMap<int, std::string> lru;
  lru.insert(1, "a", 10);
  lru.insert(2, "b", 20);
  lru.insert(3, "c", 30);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.total_cost(), 60u);

  ASSERT_NE(lru.touch(1), nullptr);  // 1 becomes most recent; LRU is now 2
  const auto victim = lru.evict_lru();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, 2);
  EXPECT_EQ(victim->cost, 20u);
  EXPECT_EQ(lru.total_cost(), 40u);
  EXPECT_EQ(lru.touch(2), nullptr);
}

TEST(LruMap, PeekDoesNotRefreshRecency) {
  LruMap<int, int> lru;
  lru.insert(1, 100, 1);
  lru.insert(2, 200, 1);
  ASSERT_NE(lru.peek(1), nullptr);
  EXPECT_EQ(*lru.peek(1), 100);
  const auto victim = lru.evict_lru();  // 1 is still least recent
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, 1);
}

TEST(LruMap, EraseAndClearRestoreCost) {
  LruMap<int, int> lru;
  lru.insert(1, 0, 5);
  lru.insert(2, 0, 7);
  EXPECT_TRUE(lru.erase(1));
  EXPECT_FALSE(lru.erase(1));
  EXPECT_EQ(lru.total_cost(), 7u);
  lru.clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_EQ(lru.total_cost(), 0u);
  EXPECT_FALSE(lru.evict_lru().has_value());
}

TEST(LruMap, DuplicateInsertIsAPreconditionViolation) {
  LruMap<int, int> lru;
  lru.insert(1, 0, 1);
  EXPECT_THROW(lru.insert(1, 0, 1), LogicError);
}

}  // namespace
}  // namespace aw4a
