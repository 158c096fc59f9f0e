// Tests for the open-addressed key -> count table (util/count_table.h).

#include "util/count_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "util/rng.h"

namespace infilter::util {
namespace {

/// Every entry of `table`, as a map.
template <class Key>
std::map<Key, std::uint32_t> contents(const CountTable<Key>& table) {
  std::map<Key, std::uint32_t> out;
  table.for_each([&](Key key, std::uint32_t count) { out.emplace(key, count); });
  return out;
}

TEST(CountTable, CapacityForIsTheSmallestPowerOfTwoWithinTheLoadLimit) {
  using Table = CountTable<std::uint32_t>;
  EXPECT_EQ(Table::capacity_for(0), Table::kMinCapacity);
  EXPECT_EQ(Table::capacity_for(6), 8u);
  EXPECT_EQ(Table::capacity_for(7), 16u);
  EXPECT_EQ(Table::capacity_for(200), 512u);
  EXPECT_EQ(Table::capacity_for(256), 512u);
  for (std::size_t keys = 1; keys < 5000; keys += 7) {
    EXPECT_LE(Table::capacity_for(keys), std::max(Table::kMinCapacity, 2 * std::bit_ceil(keys)));
  }
}

TEST(CountTable, MatchesAMapThroughRandomOperations) {
  // Few distinct keys, so runs collide, wrap and shift back; a small key
  // space also makes halve() and erase_min() hit both long and empty runs.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng{seed};
    CountTable<std::uint64_t> table;
    std::map<std::uint64_t, std::uint32_t> model;
    std::size_t most_keys = 0;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = rng.below(300) << 40 | rng.below(4);
      switch (rng.below(16)) {
        case 0:
          table.halve();
          for (auto it = model.begin(); it != model.end();) {
            it = (it->second /= 2) == 0 ? model.erase(it) : std::next(it);
          }
          break;
        case 1:
          table.erase_min();
          if (!model.empty()) {
            auto victim = model.begin();
            for (auto it = model.begin(); it != model.end(); ++it) {
              if (it->second < victim->second) victim = it;
            }
            model.erase(victim);
          }
          break;
        case 2:
          table.erase(key);
          model.erase(key);
          break;
        case 3: {
          const auto count = static_cast<std::uint32_t>(rng.below(5));
          table.assign(key, count);
          if (count == 0) {
            model.erase(key);
          } else {
            model[key] = count;
          }
          break;
        }
        case 4:
          if (model.contains(key)) {
            const std::uint32_t left = --model[key];
            if (left == 0) model.erase(key);
            EXPECT_EQ(table.decrement(key), left);
          }
          break;
        default:
          EXPECT_EQ(table.increment(key), ++model[key]);
      }
      most_keys = std::max(most_keys, model.size());
      ASSERT_EQ(table.size(), model.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(table.count(key), model.contains(key) ? model[key] : 0u);
      ASSERT_LE(table.capacity(), CountTable<std::uint64_t>::capacity_for(most_keys));
      if (step % 500 == 0) {
        ASSERT_EQ(contents(table), model) << "step " << step;
      }
    }
    EXPECT_EQ(contents(table), model);
  }
}

TEST(CountTable, HalveOnAFullWrappedTableHalvesEachEntryOnce) {
  // Fill to the load limit (6 of 8 slots), so the probe runs are long,
  // with counts whose halves are distinguishable from quarters.
  CountTable<std::uint32_t> table;
  std::map<std::uint32_t, std::uint32_t> model;
  for (std::uint32_t key = 0; key < 6; ++key) {
    table.assign(key * 7919, 4 + key % 3);
    model[key * 7919] = 4 + key % 3;
  }
  ASSERT_EQ(table.capacity(), 8u);
  table.halve();
  for (auto& [key, count] : model) count /= 2;
  EXPECT_EQ(contents(table), model);
  table.halve();
  table.halve();
  EXPECT_EQ(table.size(), 0u);
}

TEST(CountTable, GrowsOnlyWhenTheLoadLimitWouldBePassed) {
  CountTable<std::uint16_t> table;
  for (std::uint16_t key = 0; key < 6; ++key) table.increment(key);
  EXPECT_EQ(table.capacity(), 8u);
  table.increment(6);
  EXPECT_EQ(table.capacity(), 16u);
  // Erasing never shrinks.
  for (std::uint16_t key = 0; key < 7; ++key) table.decrement(key);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 16u);
}

}  // namespace
}  // namespace infilter::util
