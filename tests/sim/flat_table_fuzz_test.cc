// Randomized differential test for the open-addressing FlatTable.
//
// Replays random Insert / Find / Erase streams against the
// table and a std::unordered_map reference, comparing every result and
// the size after each step, and sweeping the whole key range now and
// then. Three hash functions shape the probe chains: a well-mixed one
// (the production case), one that piles runs of keys onto one home slot
// (long chains, erases in their middle), and one whose homes sit in the
// last slots of the array (every chain wraps past the end to slot 0).
// The tables start empty, so the streams also cross every growth step.

#include "sim/flat_table.h"

#include <cstdint>
#include <unordered_map>

#include "gtest/gtest.h"
#include "sim/random.h"

namespace spiffi::sim {
namespace {

struct MixedKey {
  static constexpr std::int64_t kEmpty = -1;
  static std::uint64_t Hash(std::int64_t key) {
    return Mix64(static_cast<std::uint64_t>(key));
  }
};

// Eight consecutive keys share a home slot.
struct RunsKey {
  static constexpr std::int64_t kEmpty = -1;
  static std::uint64_t Hash(std::int64_t key) {
    return static_cast<std::uint64_t>(key) / 8;
  }
};

// Homes are the last four slots of any power-of-two array.
struct WrapKey {
  static constexpr std::int64_t kEmpty = -1;
  static std::uint64_t Hash(std::int64_t key) {
    return ~static_cast<std::uint64_t>(key & 3);
  }
};

template <typename Traits>
void RunDifferential(std::uint64_t seed, std::int64_t key_range,
                     int steps) {
  FlatTable<std::int64_t, std::int64_t, Traits> table;
  std::unordered_map<std::int64_t, std::int64_t> reference;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const auto key = static_cast<std::int64_t>(
        rng.NextU64() % static_cast<std::uint64_t>(key_range));
    const double op = rng.NextDouble();
    if (op < 0.45) {
      const std::int64_t value = step;
      ASSERT_EQ(table.Insert(key, value),
                reference.emplace(key, value).second)
          << "insert " << key << " at step " << step;
    } else if (op < 0.80) {
      ASSERT_EQ(table.Erase(key), reference.erase(key) == 1)
          << "erase " << key << " at step " << step;
    } else {
      const std::int64_t* found = table.Find(key);
      auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "find " << key << " at step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
    ASSERT_LE(table.size() * 4, table.capacity() * 3);
    if (step % 97 == 0) {
      for (std::int64_t k = 0; k < key_range; ++k) {
        const std::int64_t* found = table.Find(k);
        auto it = reference.find(k);
        ASSERT_EQ(found != nullptr, it != reference.end())
            << "sweep " << k << " at step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
  }
}

TEST(FlatTableFuzzTest, MixedHashMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunDifferential<MixedKey>(seed, 300, 20000);
  }
}

TEST(FlatTableFuzzTest, LongChainsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunDifferential<RunsKey>(seed, 200, 20000);
  }
}

TEST(FlatTableFuzzTest, WrappingChainsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunDifferential<WrapKey>(seed, 60, 20000);
  }
}

TEST(FlatTableTest, EraseInTheMiddleOfAWrappedChain) {
  FlatTable<std::int64_t, std::int64_t, WrapKey> table;
  table.Reserve(6);  // 8 slots: homes 7, 6, 5, 4
  ASSERT_EQ(table.capacity(), 8u);
  // Keys 0 and 4 share home 7; 1 and 5 home 6. Inserted in this order
  // they fill slots 7, 0 (wrapped), 6, 1 (wrapped).
  for (std::int64_t key : {0, 4, 1, 5}) ASSERT_TRUE(table.Insert(key, key));
  // Erasing 0 (slot 7) must pull 4 back from slot 0 across the wrap,
  // and then 5, whose home 6 lies before its new slot 0.
  ASSERT_TRUE(table.Erase(0));
  for (std::int64_t key : {4, 1, 5}) {
    ASSERT_NE(table.Find(key), nullptr) << key;
    EXPECT_EQ(*table.Find(key), key);
  }
  EXPECT_EQ(table.Find(0), nullptr);
  ASSERT_TRUE(table.Erase(1));
  ASSERT_NE(table.Find(5), nullptr);
  ASSERT_NE(table.Find(4), nullptr);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTableTest, ReserveAvoidsRehashAndGrowthKeepsEntries) {
  FlatTable<std::int64_t, std::int64_t, MixedKey> table;
  table.Reserve(96);
  const std::size_t reserved = table.capacity();
  EXPECT_EQ(reserved, 128u);  // 96 entries at load 3/4
  for (std::int64_t key = 0; key < 96; ++key) table.Insert(key, 2 * key);
  EXPECT_EQ(table.capacity(), reserved);
  table.Insert(96, 192);  // one past the reservation doubles the array
  EXPECT_EQ(table.capacity(), 2 * reserved);
  for (std::int64_t key = 0; key <= 96; ++key) {
    ASSERT_NE(table.Find(key), nullptr);
    EXPECT_EQ(*table.Find(key), 2 * key);
  }
}

TEST(FlatTableTest, SetInsertReportsDuplicates) {
  FlatSet<std::int64_t, MixedKey> set;
  EXPECT_TRUE(set.Insert(7));
  EXPECT_FALSE(set.Insert(7));
  EXPECT_NE(set.Find(7), nullptr);
  EXPECT_TRUE(set.Erase(7));
  EXPECT_FALSE(set.Erase(7));
  EXPECT_EQ(set.Find(7), nullptr);
}

}  // namespace
}  // namespace spiffi::sim
