// The process-wide video library cache (mpeg/library_cache.h) and the
// pins capacity searches and runner batches take on it.
//
// Build and hit counters are process-wide, so every test reads them as
// deltas around its own work.

#include "mpeg/library_cache.h"

#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "vod/capacity.h"
#include "vod/runner.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

using mpeg::GetLibraryCacheStats;
using mpeg::LibraryKey;
using mpeg::SharedLibrary;

SimConfig TinyConfig() {
  SimConfig config;
  config.num_nodes = 1;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.videos_per_disk = 4;
  config.server_memory_bytes = 128LL * 1024 * 1024;
  config.terminals = 10;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 20.0;
  return config;
}

LibraryKey SmallKey() {
  LibraryKey key;
  key.count = 3;
  key.duration_seconds = 10.0;
  key.zipf_z = 1.0;
  key.seed = 42;
  return key;
}

std::uint64_t Builds() { return GetLibraryCacheStats().builds; }

TEST(LibraryCacheTest, ConcurrentSameKeyConstructionsShareOneBuild) {
  constexpr int kThreads = 8;
  const SimConfig config = TinyConfig();
  const mpeg::LibraryCacheStats before = GetLibraryCacheStats();
  std::vector<std::unique_ptr<Simulation>> sims(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&sims, &config, i] { sims[i] = std::make_unique<Simulation>(config); });
  }
  for (std::thread& thread : threads) thread.join();
  const mpeg::LibraryCacheStats after = GetLibraryCacheStats();
  EXPECT_EQ(after.builds - before.builds, 1u);
  EXPECT_EQ(after.hits - before.hits, kThreads - 1u);
  for (const auto& sim : sims) {
    EXPECT_EQ(&sim->library(), &sims[0]->library());
  }
}

// The exact-path draws of a build are added once, when it is built; a
// hit adds nothing. Seed 33 takes the exact path in this build.
TEST(LibraryCacheTest, FallbackDrawsAddOncePerBuild) {
  LibraryKey key;
  key.count = 16;
  key.duration_seconds = 3600.0;
  key.zipf_z = 1.0;
  key.seed = 33;
  const mpeg::LibraryCacheStats before = GetLibraryCacheStats();
  auto library = SharedLibrary(key);
  auto again = SharedLibrary(key);
  const mpeg::LibraryCacheStats after = GetLibraryCacheStats();
  ASSERT_EQ(again, library);
  EXPECT_GT(library->fallback_draws(), 0);
  EXPECT_EQ(after.fallback_draws - before.fallback_draws,
            static_cast<std::uint64_t>(library->fallback_draws()));
  EXPECT_EQ(after.draws - before.draws, 16u * 108000u);
}

TEST(LibraryCacheTest, ConcurrentMixedKeysBuildOncePerKey) {
  constexpr int kThreads = 9;
  constexpr int kKeys = 3;
  const std::uint64_t before = Builds();
  std::vector<std::shared_ptr<const mpeg::VideoLibrary>> held(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&held, i] {
      LibraryKey key = SmallKey();
      key.seed = 1000 + i % kKeys;
      held[i] = SharedLibrary(key);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Builds() - before, static_cast<std::uint64_t>(kKeys));
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(held[i], held[i % kKeys]);
  }
  EXPECT_NE(held[0], held[1]);
}

TEST(LibraryCacheTest, EveryConstructorInputIsPartOfTheKey) {
  const LibraryKey base_key = SmallKey();
  std::vector<LibraryKey> variants;
  auto vary = [&](auto change) {
    LibraryKey key = base_key;
    change(key);
    variants.push_back(key);
  };
  vary([](LibraryKey& k) { k.count = 4; });
  vary([](LibraryKey& k) { k.duration_seconds = 12.0; });
  vary([](LibraryKey& k) { k.zipf_z = 0.5; });
  vary([](LibraryKey& k) { k.seed = 43; });
  vary([](LibraryKey& k) { k.params.frames_per_second = 25.0; });
  vary([](LibraryKey& k) { k.params.bits_per_second = 3.0 * 1024 * 1024; });
  vary([](LibraryKey& k) { k.params.i_per_gop = 2; });
  vary([](LibraryKey& k) { k.params.p_per_gop = 5; });
  vary([](LibraryKey& k) { k.params.b_per_gop = 8; });
  vary([](LibraryKey& k) { k.params.i_size_weight = 9; });
  vary([](LibraryKey& k) { k.params.p_size_weight = 4; });
  vary([](LibraryKey& k) { k.params.b_size_weight = 3; });
  vary([](LibraryKey& k) { k.block_bytes = 256 * 1024; });

  const auto base = SharedLibrary(base_key);
  EXPECT_EQ(SharedLibrary(base_key), base);
  std::vector<std::shared_ptr<const mpeg::VideoLibrary>> held;
  const std::uint64_t before = Builds();
  for (const LibraryKey& key : variants) {
    held.push_back(SharedLibrary(key));
    EXPECT_NE(held.back(), base);
  }
  EXPECT_EQ(Builds() - before, variants.size());
}

TEST(LibraryCacheTest, SimulationKeyIgnoresTerminalsButNotSeed) {
  SimConfig config = TinyConfig();
  const auto pinned = SharedLibraryFor(config);
  config.terminals = 50;
  EXPECT_EQ(SharedLibraryFor(config), pinned);
  config.seed += 1;
  EXPECT_NE(SharedLibraryFor(config), pinned);
}

// The stripe size is the library's read block size: configs that differ
// only in it get libraries of their own, each indexed at its own size.
TEST(LibraryCacheTest, SimulationKeyFollowsStripeBytes) {
  SimConfig config = TinyConfig();
  const auto pinned = SharedLibraryFor(config);
  EXPECT_EQ(pinned->block_bytes(), config.stripe_bytes);
  SimConfig other = config;
  other.stripe_bytes = 256 * 1024;
  const auto other_library = SharedLibraryFor(other);
  EXPECT_NE(other_library, pinned);
  EXPECT_EQ(other_library->block_bytes(), other.stripe_bytes);
  EXPECT_EQ(SharedLibraryFor(config), pinned);
  // Same frames, cut into twice the blocks.
  EXPECT_EQ(other_library->video(0).total_bytes(),
            pinned->video(0).total_bytes());
  EXPECT_EQ(other_library->NumBlocks(0),
            (pinned->video(0).total_bytes() + other.stripe_bytes - 1) /
                other.stripe_bytes);
}

TEST(LibraryCacheTest, LibraryDiesWithItsLastHolder) {
  const LibraryKey key = SmallKey();
  std::weak_ptr<const mpeg::VideoLibrary> weak = SharedLibrary(key);
  EXPECT_TRUE(weak.expired());
  const std::uint64_t before = Builds();
  SharedLibrary(key);
  EXPECT_EQ(Builds() - before, 1u);
}

TEST(LibraryCacheTest, ExpiredEntriesAreSwept) {
  constexpr int kSeeds = 200;
  const std::uint64_t before = Builds();
  LibraryKey key = SmallKey();
  key.count = 1;
  for (int i = 0; i < kSeeds; ++i) {
    key.seed = 5000 + static_cast<std::uint64_t>(i);
    SharedLibrary(key);
  }
  EXPECT_EQ(Builds() - before, static_cast<std::uint64_t>(kSeeds));
  // Only the last request's (already expired) entry may remain.
  EXPECT_LE(GetLibraryCacheStats().entries, 1u);
}

TEST(LibraryCacheTest, SharedLibraryRunMatchesFreshBuild) {
  SimConfig config = TinyConfig();
  config.terminals = 30;
  const SimMetrics fresh = RunSimulation(config);
  const auto pinned = SharedLibraryFor(config);
  Simulation shared(config);
  EXPECT_EQ(&shared.library(), pinned.get());
  const SimMetrics metrics = shared.Run();
  EXPECT_EQ(metrics.glitches, fresh.glitches);
  EXPECT_EQ(metrics.frames_displayed, fresh.frames_displayed);
  EXPECT_EQ(metrics.events_simulated, fresh.events_simulated);
  EXPECT_EQ(metrics.avg_response_ms, fresh.avg_response_ms);
}

// One library build per replication seed for a whole search, at any
// job count — not one per probe — and for a whole batch of searches
// per library key: configs that differ in no library input share one,
// and a stripe size of its own adds one per seed.
class SearchBuildsTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SearchBuildsTest, OneBuildPerReplication) {
  const auto [jobs, replications] = GetParam();
  CapacitySearchOptions options;
  options.min_terminals = 2;
  options.max_terminals = 120;
  options.start_guess = 16;
  options.step = 8;
  options.replications = replications;
  options.jobs = jobs;
  std::uint64_t before = Builds();
  const CapacityResult result = FindMaxTerminals(TinyConfig(), options);
  EXPECT_GT(result.probes.size(), 2u);
  EXPECT_EQ(Builds() - before, static_cast<std::uint64_t>(replications));

  SimConfig real_time = TinyConfig();
  real_time.disk_sched = server::DiskSchedPolicy::kRealTime;
  real_time.prefetch = server::PrefetchPolicy::kDelayed;
  SimConfig small_memory = TinyConfig();
  small_memory.server_memory_bytes = 64LL * 1024 * 1024;
  SimConfig small_stripe = TinyConfig();
  small_stripe.stripe_bytes = 256 * 1024;
  CapacitySearchOptions coarse = options;
  coarse.start_guess = 40;
  coarse.step = 16;
  before = Builds();
  const std::vector<CapacityResult> batch = FindCapacities(
      {{TinyConfig(), coarse}, {real_time, options}, {small_memory, options},
       {small_stripe, coarse}});
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(Builds() - before, static_cast<std::uint64_t>(2 * replications));
}

INSTANTIATE_TEST_SUITE_P(LibraryCache, SearchBuildsTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{4, 1}, std::pair{4, 2}));

TEST(LibraryCacheTest, SerialGlitchCurveBuildsOneLibraryPerSeed) {
  std::vector<SimConfig> curve;
  for (int terminals : {5, 10, 20}) {
    for (std::uint64_t replication = 0; replication < 2; ++replication) {
      SimConfig config = TinyConfig();
      config.terminals = terminals;
      config.seed += replication;
      curve.push_back(config);
    }
  }
  const std::uint64_t before = Builds();
  ParallelRunner runner(1);
  ASSERT_EQ(runner.RunAll(curve).size(), 6u);
  EXPECT_EQ(Builds() - before, 2u);
}

// A RunAll batch builds one library per distinct library key and seed,
// however its runs interleave the keys, at any job count; the stripe
// size is part of the key.
class RunAllBuildsTest : public ::testing::TestWithParam<int> {};

TEST_P(RunAllBuildsTest, OneBuildPerLibraryKeyAndSeed) {
  struct Key {
    double zipf_z;
    std::int64_t stripe_bytes;
  };
  constexpr Key kKeys[] = {
      {1.0, 512 * 1024}, {0.5, 512 * 1024}, {0.0, 512 * 1024},
      {1.0, 256 * 1024}};
  constexpr int kSeeds = 2;
  std::vector<SimConfig> batch;
  for (int terminals : {5, 10}) {
    for (int seed = 0; seed < kSeeds; ++seed) {
      for (const Key& key : kKeys) {
        SimConfig config = TinyConfig();
        config.terminals = terminals;
        config.seed += static_cast<std::uint64_t>(seed);
        config.zipf_z = key.zipf_z;
        config.stripe_bytes = key.stripe_bytes;
        batch.push_back(config);
      }
    }
  }
  const std::uint64_t before = Builds();
  ParallelRunner runner(GetParam());
  ASSERT_EQ(runner.RunAll(batch).size(), batch.size());
  EXPECT_EQ(Builds() - before, std::size(kKeys) * kSeeds);
}

INSTANTIATE_TEST_SUITE_P(LibraryCache, RunAllBuildsTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace spiffi::vod
