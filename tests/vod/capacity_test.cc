#include "vod/capacity.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "vod/runner.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

// Tiny configuration so capacity searches run in well under a second per
// probe: 1 node, 2 disks, 2-minute videos, short windows.
SimConfig TinyConfig() {
  SimConfig config;
  config.num_nodes = 1;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.videos_per_disk = 4;
  config.server_memory_bytes = 128LL * 1024 * 1024;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 20.0;
  return config;
}

TEST(CapacityTest, GlitchesAtMonotoneAtExtremes) {
  SimConfig config = TinyConfig();
  EXPECT_EQ(GlitchesAt(config, 5, 1), 0u);
  EXPECT_GT(GlitchesAt(config, 80, 1), 0u);
}

TEST(CapacityTest, FindMaxTerminalsBracketsTheBoundary) {
  SimConfig config = TinyConfig();
  CapacitySearchOptions options;
  options.min_terminals = 2;
  options.max_terminals = 120;
  options.start_guess = 16;
  options.step = 4;
  CapacityResult result = FindMaxTerminals(config, options);
  // The boundary for 2 disks is somewhere in the tens of terminals.
  EXPECT_GT(result.max_terminals, 10);
  EXPECT_LT(result.max_terminals, 80);
  // The reported capacity was actually probed glitch-free...
  bool found = false;
  for (const auto& [terminals, glitches] : result.probes) {
    if (terminals == result.max_terminals) {
      EXPECT_EQ(glitches, 0u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // ...and something above it glitched.
  bool failure_seen = false;
  for (const auto& [terminals, glitches] : result.probes) {
    if (terminals > result.max_terminals && glitches > 0) {
      failure_seen = true;
    }
  }
  EXPECT_TRUE(failure_seen);
}

TEST(CapacityTest, ResultCarriesMetricsAtCapacity) {
  SimConfig config = TinyConfig();
  CapacitySearchOptions options;
  options.min_terminals = 2;
  options.max_terminals = 120;
  options.start_guess = 16;
  options.step = 8;
  CapacityResult result = FindMaxTerminals(config, options);
  EXPECT_EQ(result.at_capacity.glitches, 0u);
  EXPECT_GT(result.at_capacity.frames_displayed, 0u);
}

TEST(CapacityTest, SearchRespectsMaxBound) {
  SimConfig config = TinyConfig();
  config.terminals = 1;
  CapacitySearchOptions options;
  options.min_terminals = 2;
  options.max_terminals = 8;  // far below true capacity
  options.start_guess = 4;
  options.step = 2;
  CapacityResult result = FindMaxTerminals(config, options);
  EXPECT_EQ(result.max_terminals, 8);
}

TEST(CapacityTest, ReplicationsSumGlitches) {
  SimConfig config = TinyConfig();
  std::uint64_t one = GlitchesAt(config, 80, 1);
  std::uint64_t three = GlitchesAt(config, 80, 3);
  EXPECT_GE(three, one);  // more seeds, at least as many glitches
}

// A glitch curve's points, run as one RunAll batch, count what a
// capacity probe at the same terminal count counts.
TEST(CapacityTest, GlitchCurveMatchesDirectProbes) {
  const SimConfig config = TinyConfig();
  std::vector<SimConfig> points(2, config);
  points[0].terminals = 10;
  points[1].terminals = 90;
  ParallelRunner runner(1);
  const std::vector<SimMetrics> curve = runner.RunAll(points);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve[0].terminals, 10);
  EXPECT_EQ(curve[0].glitches, 0u);
  EXPECT_GT(curve[1].glitches, 0u);
  EXPECT_EQ(curve[1].glitches, GlitchesAt(config, 90, 1));
}

// The replication aggregate of the stream-sharing, proxy, and resilience
// fields, checked against the per-replication runs summed by hand:
// counters and durations add, avg_proxy_forward_ms averages, and
// prefix_pinned_pages takes the larger of the two.
void ExpectHandAggregate(const SimConfig& config, int terminals) {
  SimConfig first = config;
  first.terminals = terminals;
  SimConfig second = first;
  second.seed = config.seed + 1;
  const SimMetrics a = RunSimulation(first);
  const SimMetrics b = RunSimulation(second);
  SimMetrics m;
  GlitchesAt(config, terminals, 2, &m);

  EXPECT_EQ(m.share_groups, a.share_groups + b.share_groups);
  EXPECT_EQ(m.share_followers, a.share_followers + b.share_followers);
  EXPECT_EQ(m.share_patches, a.share_patches + b.share_patches);
  EXPECT_EQ(m.share_patch_seconds,
            a.share_patch_seconds + b.share_patch_seconds);
  EXPECT_EQ(m.share_handoffs, a.share_handoffs + b.share_handoffs);
  EXPECT_EQ(m.prefix_hits, a.prefix_hits + b.prefix_hits);
  EXPECT_EQ(m.prefix_pinned_pages,
            std::max(a.prefix_pinned_pages, b.prefix_pinned_pages));
  EXPECT_EQ(m.proxy_references, a.proxy_references + b.proxy_references);
  EXPECT_EQ(m.proxy_hits, a.proxy_hits + b.proxy_hits);
  EXPECT_EQ(m.proxy_attaches, a.proxy_attaches + b.proxy_attaches);
  EXPECT_EQ(m.proxy_forwards, a.proxy_forwards + b.proxy_forwards);
  EXPECT_EQ(m.proxy_bytes_from_cache,
            a.proxy_bytes_from_cache + b.proxy_bytes_from_cache);
  EXPECT_EQ(m.avg_proxy_forward_ms,
            (a.avg_proxy_forward_ms + b.avg_proxy_forward_ms) / 2.0);
  EXPECT_EQ(m.admission_admits, a.admission_admits + b.admission_admits);
  EXPECT_EQ(m.admission_rejects, a.admission_rejects + b.admission_rejects);
  EXPECT_EQ(m.admission_defers, a.admission_defers + b.admission_defers);
  EXPECT_EQ(m.failover_readmissions,
            a.failover_readmissions + b.failover_readmissions);
  EXPECT_EQ(m.request_retries, a.request_retries + b.request_retries);
  EXPECT_EQ(m.retries_exhausted, a.retries_exhausted + b.retries_exhausted);
  EXPECT_EQ(m.session_failovers, a.session_failovers + b.session_failovers);
  EXPECT_EQ(m.duplicate_replies, a.duplicate_replies + b.duplicate_replies);
  EXPECT_EQ(m.proxy_forward_retries,
            a.proxy_forward_retries + b.proxy_forward_retries);
  EXPECT_EQ(m.proxy_stale_replies,
            a.proxy_stale_replies + b.proxy_stale_replies);
  EXPECT_EQ(m.rebuilds_completed,
            a.rebuilds_completed + b.rebuilds_completed);
  EXPECT_EQ(m.rebuild_sec, a.rebuild_sec + b.rebuild_sec);
  EXPECT_EQ(m.rebuild_bytes, a.rebuild_bytes + b.rebuild_bytes);
}

// Admission + request retry + a replicated layout that loses and
// rebuilds a disk, so the resilience counters are live in both
// replications.
TEST(CapacityTest, AggregateSumsResilienceCounters) {
  SimConfig config = TinyConfig();
  config.num_nodes = 2;
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.admission_policy = AdmissionPolicy::kStaticReservation;
  config.request_retry_budget = 2;
  config.rebuild_mbps = 2000.0;
  config.fault_plan.script.push_back({20.0, fault::FaultKind::kDiskFail, 0});
  config.fault_plan.script.push_back(
      {25.0, fault::FaultKind::kDiskRecover, 0});
  SimConfig second = config;
  second.seed = config.seed + 1;
  second.terminals = 40;
  const SimMetrics b = RunSimulation(second);
  ASSERT_GT(b.admission_admits, 0u);
  ASSERT_GT(b.rebuilds_completed, 0u);
  ExpectHandAggregate(config, 40);
}

// Batching + patching + a pinned prefix cache behind a proxy tier, so
// the sharing and proxy fields are live in both replications.
TEST(CapacityTest, AggregateSumsSharingAndProxyCounters) {
  SimConfig config = TinyConfig();
  // Videos short enough that terminals re-request during the
  // measurement window, so groups form after the stats reset.
  config.video_seconds = 30.0;
  config.measure_seconds = 40.0;
  config.piggyback_window_sec = 8.0;
  config.patch_window_sec = 10.0;
  config.prefix_cache_fraction = 0.25;
  config.prefix_recompute_sec = 5.0;
  config.proxy_nodes = 2;
  config.proxy_cache_pages = 64;
  SimConfig second = config;
  second.seed = config.seed + 1;
  second.terminals = 30;
  const SimMetrics b = RunSimulation(second);
  ASSERT_GT(b.share_groups, 0u);
  ASSERT_GT(b.proxy_references, 0u);
  ExpectHandAggregate(config, 30);
}

}  // namespace
}  // namespace spiffi::vod
