#include "util/flat_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.hpp"

namespace scmp::util {
namespace {

std::vector<int> items(const FlatSet<int>& s) {
  return {s.begin(), s.end()};
}

std::vector<int> items(const std::set<int>& s) {
  return {s.begin(), s.end()};
}

TEST(FlatSet, InitializerListSortsAndDropsDuplicates) {
  const FlatSet<int> s{5, 3, 5, 1};
  EXPECT_EQ(items(s), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s, (FlatSet<int>{1, 3, 5}));
  EXPECT_NE(s, (FlatSet<int>{1, 3}));
}

TEST(FlatSet, InsertAndEraseReportWhetherTheSetChanged) {
  FlatSet<int> s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(4));
  EXPECT_FALSE(s.insert(4));
  EXPECT_TRUE(s.contains(4));
  EXPECT_EQ(s.erase(7), 0u);
  EXPECT_EQ(s.erase(4), 1u);
  EXPECT_EQ(s.erase(4), 0u);
  EXPECT_TRUE(s.empty());
}

// Random operations on small and on sparse key ranges, checked after every
// step against std::set: membership of every key, size, and ascending
// iteration order.
TEST(FlatSet, MatchesStdSetUnderRandomOperations) {
  for (const int range : {4, 16, 1000}) {
    Rng rng(static_cast<std::uint64_t>(range));
    FlatSet<int> flat;
    std::set<int> ref;
    for (int step = 0; step < 4000; ++step) {
      const auto v = static_cast<int>(rng.uniform_int(-range, range));
      switch (rng.uniform_int(0, 3)) {
        case 0:
        case 1:
          ASSERT_EQ(flat.insert(v), ref.insert(v).second) << "insert " << v;
          break;
        case 2:
          ASSERT_EQ(flat.erase(v), ref.erase(v)) << "erase " << v;
          break;
        default:
          ASSERT_EQ(flat.contains(v), ref.contains(v)) << "contains " << v;
          break;
      }
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_EQ(flat.empty(), ref.empty());
      if (step % 97 == 0) {
        ASSERT_EQ(items(flat), items(ref)) << "step " << step;
        for (int k = -range; k <= range && range <= 16; ++k)
          ASSERT_EQ(flat.contains(k), ref.contains(k)) << "key " << k;
      }
      if (step % 1000 == 999) {
        flat.clear();
        ref.clear();
      }
    }
    EXPECT_EQ(items(flat), items(ref));
  }
}

}  // namespace
}  // namespace scmp::util
