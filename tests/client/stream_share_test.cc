// Stream-sharing manager: group lifecycle (expiry/pruning), role
// assignment, patch-length math at the window boundaries, leader
// handoff, and bit-identity of full shared-mode runs across job counts.

#include "client/stream_share.h"

#include <vector>

#include "gtest/gtest.h"
#include "sim/process.h"
#include "vod/capacity.h"
#include "vod/metrics_testing.h"
#include "vod/runner.h"
#include "vod/simulation.h"

namespace spiffi::client {
namespace {

using Role = StreamShareManager::Role;

// Records the callbacks a terminal would receive.
class RecordingMember : public StreamShareMember {
 public:
  void OnPromotedToLeader(int video) override {
    promotions.push_back(video);
  }
  void OnShareGroupDisbanded(int video) override {
    disbands.push_back(video);
  }
  std::vector<int> promotions;
  std::vector<int> disbands;
};

// Runs `body` at sim time `at` and drives the environment to completion.
template <typename Fn>
void RunAt(sim::Environment* env, double at, Fn body) {
  env->Spawn([](sim::Environment* e, double when,
                Fn fn) -> sim::Process {
    co_await e->Hold(when - e->now());
    fn();
  }(env, at, std::move(body)));
  env->Run();
}

TEST(StreamShareTest, FollowerAtExactStartPatcherAfterwards) {
  sim::Environment env;
  StreamShareManager manager(&env, /*window_sec=*/10.0,
                             /*patch_window_sec=*/30.0);
  RecordingMember leader, mirror, patcher;
  auto lead = manager.Arrange(4, 0, 600.0, &leader);
  EXPECT_EQ(lead.role, Role::kLeader);
  EXPECT_DOUBLE_EQ(lead.start_time, 10.0);

  RunAt(&env, 10.0, [&] {
    // t == start: still a zero-offset follower, not a patcher.
    auto join = manager.Arrange(4, 1, 600.0, &mirror);
    EXPECT_EQ(join.role, Role::kFollower);
    EXPECT_DOUBLE_EQ(join.patch_seconds, 0.0);
    EXPECT_EQ(join.group_id, lead.group_id);
  });
  RunAt(&env, 25.0, [&] {
    auto join = manager.Arrange(4, 2, 600.0, &patcher);
    EXPECT_EQ(join.role, Role::kPatcher);
    EXPECT_DOUBLE_EQ(join.patch_seconds, 15.0);  // now - group start
    EXPECT_DOUBLE_EQ(join.start_time, 10.0);
  });
  EXPECT_EQ(manager.stats().followers_attached, 1u);
  EXPECT_EQ(manager.stats().patchers_attached, 1u);
  EXPECT_DOUBLE_EQ(manager.stats().patch_seconds_total, 15.0);
}

TEST(StreamShareTest, PatchLengthAtWindowBoundaries) {
  sim::Environment env;
  StreamShareManager manager(&env, /*window_sec=*/0.0,
                             /*patch_window_sec=*/20.0);
  RecordingMember m0, m1, m2, m3;
  // No batching window: the group starts immediately at t=0.
  auto lead = manager.Arrange(7, 0, 600.0, &m0);
  EXPECT_EQ(lead.role, Role::kLeader);
  EXPECT_DOUBLE_EQ(lead.start_time, 0.0);

  const double eps = 1e-6;
  RunAt(&env, 20.0 - eps, [&] {
    auto join = manager.Arrange(7, 1, 600.0, &m1);
    EXPECT_EQ(join.role, Role::kPatcher);
    EXPECT_DOUBLE_EQ(join.patch_seconds, 20.0 - eps);
  });
  RunAt(&env, 20.0, [&] {
    // Exactly at the patch horizon: still inside (offset <= window).
    auto join = manager.Arrange(7, 2, 600.0, &m2);
    EXPECT_EQ(join.role, Role::kPatcher);
    EXPECT_DOUBLE_EQ(join.patch_seconds, 20.0);
  });
  RunAt(&env, 20.5, [&] {
    // Past the horizon: a fresh group forms (and starts immediately).
    auto join = manager.Arrange(7, 3, 600.0, &m3);
    EXPECT_EQ(join.role, Role::kLeader);
    EXPECT_DOUBLE_EQ(join.start_time, 20.5);
    EXPECT_NE(join.group_id, lead.group_id);
  });
}

TEST(StreamShareTest, LeaderHandoffPromotesFirstMirrorNotPatcher) {
  sim::Environment env;
  StreamShareManager manager(&env, 10.0, 30.0);
  RecordingMember early_patcher, mirror_a, mirror_b;
  auto lead = manager.Arrange(3, 0, 600.0, nullptr);
  RunAt(&env, 5.0, [&] {
    manager.Arrange(3, 1, 600.0, &mirror_a);
    manager.Arrange(3, 2, 600.0, &mirror_b);
  });
  RunAt(&env, 15.0, [&] {
    manager.Arrange(3, 4, 600.0, &early_patcher);
    manager.LeaderDeparting(3, lead.group_id, 0);
  });
  // Join order decides; the patcher is never promoted.
  EXPECT_EQ(manager.stats().leader_handoffs, 1u);
  EXPECT_EQ(mirror_a.promotions, std::vector<int>{3});
  EXPECT_TRUE(mirror_b.promotions.empty());
  EXPECT_TRUE(early_patcher.promotions.empty());

  // Second departure (the promoted mirror): the next mirror takes over.
  RunAt(&env, 16.0, [&] { manager.LeaderDeparting(3, lead.group_id, 1); });
  EXPECT_EQ(mirror_b.promotions, std::vector<int>{3});

  // Third departure: only the patcher remains -> disband, patcher told.
  RunAt(&env, 17.0, [&] { manager.LeaderDeparting(3, lead.group_id, 2); });
  EXPECT_EQ(manager.stats().groups_disbanded, 1u);
  EXPECT_EQ(early_patcher.disbands, std::vector<int>{3});
  EXPECT_EQ(manager.open_group_count(), 0u);
}

TEST(StreamShareTest, StaleGroupIdDepartureIsNoOp) {
  sim::Environment env;
  StreamShareManager manager(&env, 5.0, 0.0);
  auto first = manager.Arrange(9, 0, 600.0, nullptr);
  RunAt(&env, 50.0, [&] {
    // The first group expired; a new one takes the slot.
    auto second = manager.Arrange(9, 1, 600.0, nullptr);
    EXPECT_NE(second.group_id, first.group_id);
    // The displaced leader's departure must not touch the new group.
    manager.LeaderDeparting(9, first.group_id, 0);
  });
  EXPECT_EQ(manager.stats().leader_handoffs, 0u);
  EXPECT_EQ(manager.stats().groups_disbanded, 0u);
  EXPECT_EQ(manager.open_group_count(), 1u);
}

TEST(StreamShareTest, MemberDepartureRemovesOnlyThatTerminal) {
  sim::Environment env;
  StreamShareManager manager(&env, 10.0, 0.0);
  RecordingMember a, b;
  auto lead = manager.Arrange(2, 0, 600.0, nullptr);
  manager.Arrange(2, 1, 600.0, &a);
  manager.Arrange(2, 2, 600.0, &b);
  manager.MemberDeparting(2, lead.group_id, 1);
  RunAt(&env, 1.0, [&] { manager.LeaderDeparting(2, lead.group_id, 0); });
  EXPECT_TRUE(a.promotions.empty());  // departed before the handoff
  EXPECT_EQ(b.promotions, std::vector<int>{2});
}

TEST(StreamShareTest, ExpiredGroupsArePruned) {
  sim::Environment env;
  StreamShareManager manager(&env, 5.0, 0.0);
  // Anonymous groups (legacy piggyback callers) expire at start_time.
  for (int v = 0; v < 8; ++v) manager.Arrange(v, -1, 0.0, nullptr);
  EXPECT_EQ(manager.open_group_count(), 8u);
  RunAt(&env, 100.0, [&] {
    EXPECT_EQ(manager.PruneExpired(), 8u);
    EXPECT_EQ(manager.open_group_count(), 0u);
  });
  EXPECT_EQ(manager.stats().groups_pruned, 8u);
}

TEST(StreamShareTest, AmortizedSweepBoundsOpenGroups) {
  // Regression for the unbounded open_groups_ growth of the retired
  // piggyback stub: arranging many distinct videos over a long run
  // must not accumulate one dead entry per video ever requested.
  sim::Environment env;
  StreamShareManager manager(&env, 5.0, 0.0);
  env.Spawn([](sim::Environment* e,
               StreamShareManager* m) -> sim::Process {
    for (int v = 0; v < 1000; ++v) {
      m->Arrange(v, -1, 0.0, nullptr);
      co_await e->Hold(10.0);  // each group is long expired by the next
    }
  }(&env, &manager));
  env.Run();
  // The periodic sweep (every 64 arranges) keeps the table near-empty;
  // without it this would sit at 1000.
  EXPECT_LE(manager.open_group_count(), 64u);
  EXPECT_GE(manager.stats().groups_pruned, 936u);
}

TEST(StreamShareTest, GroupWithLiveMembersSurvivesUntilStreamEnd) {
  sim::Environment env;
  StreamShareManager manager(&env, 5.0, 0.0);
  RecordingMember follower;
  manager.Arrange(1, 0, /*duration_sec=*/100.0, &follower);
  manager.Arrange(1, 1, 100.0, &follower);
  RunAt(&env, 50.0, [&] {
    // Past joinability but the stream (ends at 105) still needs handoff
    // bookkeeping for its follower.
    EXPECT_EQ(manager.PruneExpired(), 0u);
    EXPECT_EQ(manager.open_group_count(), 1u);
  });
  RunAt(&env, 106.0, [&] { EXPECT_EQ(manager.PruneExpired(), 1u); });
}

// --- End-to-end determinism of shared-mode runs ---

vod::SimConfig SharedTinyConfig() {
  vod::SimConfig config;
  config.num_nodes = 1;
  config.disks_per_node = 2;
  // Videos short enough that terminals re-request during the
  // measurement window, so groups actually form after the stats reset.
  config.video_seconds = 30.0;
  config.videos_per_disk = 4;
  config.server_memory_bytes = 128LL * 1024 * 1024;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 40.0;
  config.terminals = 30;
  config.piggyback_window_sec = 8.0;
  config.patch_window_sec = 10.0;
  config.prefix_cache_fraction = 0.25;
  config.prefix_recompute_sec = 5.0;
  return config;
}

TEST(StreamShareTest, SharedRunsBitIdenticalAcrossJobCounts) {
  std::vector<vod::SimConfig> batch;
  for (int i = 0; i < 4; ++i) {
    vod::SimConfig config = SharedTinyConfig();
    config.seed = 40 + i;
    config.terminals = 20 + 5 * i;
    batch.push_back(config);
  }
  vod::ParallelRunner serial(1);
  vod::ParallelRunner parallel(4);
  std::vector<vod::SimMetrics> at_one = serial.RunAll(batch);
  std::vector<vod::SimMetrics> at_four = parallel.RunAll(batch);
  ASSERT_EQ(at_one.size(), batch.size());
  ASSERT_EQ(at_four.size(), batch.size());
  bool saw_sharing = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    vod::ExpectBitIdentical(at_one[i], at_four[i]);
    saw_sharing = saw_sharing || at_one[i].share_groups > 0;
  }
  // The comparison only means something if sharing actually engaged.
  EXPECT_TRUE(saw_sharing);
}

TEST(StreamShareTest, SharedRunEngagesAllThreeMechanisms) {
  vod::SimConfig config = SharedTinyConfig();
  config.terminals = 40;
  vod::SimMetrics metrics = vod::RunSimulation(config);
  EXPECT_GT(metrics.share_groups, 0u);
  EXPECT_GT(metrics.share_followers + metrics.share_patches, 0u);
  EXPECT_GT(metrics.prefix_pinned_pages, 0);
}

}  // namespace
}  // namespace spiffi::client
