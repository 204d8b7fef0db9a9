// Whole-system integration tests on small configurations.

#include "vod/simulation.h"

#include "gtest/gtest.h"

namespace spiffi::vod {
namespace {

// A small, fast configuration: 2 nodes x 2 disks, 2-minute videos.
SimConfig SmallConfig() {
  SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 256LL * 1024 * 1024;
  config.terminals = 20;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  return config;
}

TEST(SimulationTest, LightLoadIsGlitchFree) {
  SimMetrics m = RunSimulation(SmallConfig());
  EXPECT_EQ(m.glitches, 0u);
  EXPECT_TRUE(m.glitch_free());
  // Every terminal displays ~30 fps over the 30 s window.
  EXPECT_NEAR(static_cast<double>(m.frames_displayed),
              20 * 30.0 * 30.0, 20 * 30.0 * 30.0 * 0.1);
}

TEST(SimulationTest, OverloadGlitches) {
  SimConfig config = SmallConfig();
  config.terminals = 120;  // 4 disks cannot feed 120 streams
  SimMetrics m = RunSimulation(config);
  EXPECT_GT(m.glitches, 0u);
  EXPECT_GT(m.terminals_with_glitches, 0);
  EXPECT_GT(m.avg_disk_utilization, 0.95);
}

TEST(SimulationTest, SameSeedIsFullyReproducible) {
  SimConfig config = SmallConfig();
  config.terminals = 60;
  SimMetrics a = RunSimulation(config);
  SimMetrics b = RunSimulation(config);
  EXPECT_EQ(a.glitches, b.glitches);
  EXPECT_EQ(a.frames_displayed, b.frames_displayed);
  EXPECT_EQ(a.events_simulated, b.events_simulated);
  EXPECT_DOUBLE_EQ(a.avg_disk_utilization, b.avg_disk_utilization);
  EXPECT_EQ(a.buffer_references, b.buffer_references);
}

TEST(SimulationTest, DifferentSeedsDiffer) {
  SimConfig config = SmallConfig();
  config.terminals = 60;
  SimMetrics a = RunSimulation(config);
  config.seed = 99;
  SimMetrics b = RunSimulation(config);
  EXPECT_NE(a.events_simulated, b.events_simulated);
}

TEST(SimulationTest, CalendarPreSizedFromConfigNeverReallocates) {
  // The calendar heap is reserved from SimConfig::expected_peak_events()
  // at construction, so a steady-state run — here the fig09 smoke
  // configuration (paper defaults, smoke windows) — must never grow it.
  SimConfig config;  // paper defaults: 4 nodes x 4 disks, 200 terminals
  config.start_window_sec = 20.0;
  config.warmup_seconds = 30.0;
  config.measure_seconds = 30.0;
  Simulation simulation(config);
  simulation.RunWarmup();
  EXPECT_EQ(simulation.env().calendar_storage_grows(), 0u);
  simulation.RunMeasurement();
  EXPECT_EQ(simulation.env().calendar_storage_grows(), 0u);
  EXPECT_LE(simulation.env().peak_calendar_size(),
            config.expected_peak_events());
}

TEST(SimulationTest, DisplayTicksRideTheTickLane) {
  // Frame ticks are most of a steady run's events, and they go through
  // the calendar's in-order tick lane rather than its heap. A change
  // that knocks them out of the lane (a tick scheduled through plain
  // Schedule, or an out-of-order tick pattern) shows up here as a
  // collapse of the lane's share instead of a quiet slowdown.
  Simulation simulation(SmallConfig());
  simulation.Run();
  const sim::Environment& env = simulation.env();
  ASSERT_GT(env.events_fired(), 0u);
  EXPECT_GE(static_cast<double>(env.calendar_lane_fires()),
            0.6 * static_cast<double>(env.events_fired()));
  EXPECT_EQ(env.calendar_storage_grows(), 0u);
}

TEST(SimulationTest, MeasurementWindowRespected) {
  SimConfig config = SmallConfig();
  SimMetrics m = RunSimulation(config);
  EXPECT_DOUBLE_EQ(m.measured_seconds, config.measure_seconds);
  EXPECT_EQ(m.terminals, config.terminals);
}

TEST(SimulationTest, UtilizationScalesWithLoad) {
  SimConfig config = SmallConfig();
  config.terminals = 10;
  SimMetrics light = RunSimulation(config);
  config.terminals = 40;
  SimMetrics heavy = RunSimulation(config);
  EXPECT_GT(heavy.avg_disk_utilization, light.avg_disk_utilization);
  EXPECT_GT(heavy.avg_network_bytes_per_sec,
            light.avg_network_bytes_per_sec);
}

TEST(SimulationTest, NetworkCarriesRoughlyBitRatePerTerminal) {
  SimConfig config = SmallConfig();
  config.terminals = 20;
  SimMetrics m = RunSimulation(config);
  // 20 terminals at 4 Mbit/s = 0.5 MB/s each ~ 10 MB/s + request
  // overhead; allow generous tolerance for block granularity.
  double expected = 20 * config.mpeg.bytes_per_second();
  EXPECT_NEAR(m.avg_network_bytes_per_sec, expected, expected * 0.25);
}

TEST(SimulationTest, NonStripedLayoutRuns) {
  SimConfig config = SmallConfig();
  config.placement = VideoPlacement::kNonStriped;
  config.terminals = 8;
  SimMetrics m = RunSimulation(config);
  EXPECT_GT(m.frames_displayed, 0u);
}

TEST(SimulationTest, NonStripedSkewedLoadImbalancesDisks) {
  SimConfig config = SmallConfig();
  config.terminals = 40;
  config.zipf_z = 1.5;
  config.placement = VideoPlacement::kNonStriped;
  SimMetrics nonstriped = RunSimulation(config);
  config.placement = VideoPlacement::kStriped;
  SimMetrics striped = RunSimulation(config);
  // Striping balances: the min/max utilization spread is much tighter.
  double striped_spread =
      striped.max_disk_utilization - striped.min_disk_utilization;
  double nonstriped_spread = nonstriped.max_disk_utilization -
                             nonstriped.min_disk_utilization;
  EXPECT_GT(nonstriped_spread, striped_spread + 0.1);
}

TEST(SimulationTest, RealTimeSchedulerRuns) {
  SimConfig config = SmallConfig();
  config.disk_sched = server::DiskSchedPolicy::kRealTime;
  config.prefetch = server::PrefetchPolicy::kRealTime;
  SimMetrics m = RunSimulation(config);
  EXPECT_EQ(m.glitches, 0u);
  EXPECT_GT(m.prefetches_issued, 0u);
}

TEST(SimulationTest, DelayedPrefetchRuns) {
  SimConfig config = SmallConfig();
  config.disk_sched = server::DiskSchedPolicy::kRealTime;
  config.prefetch = server::PrefetchPolicy::kDelayed;
  config.replacement = server::ReplacementPolicy::kLovePrefetch;
  config.max_advance_prefetch_sec = 8.0;
  SimMetrics m = RunSimulation(config);
  EXPECT_EQ(m.glitches, 0u);
}

TEST(SimulationTest, GssSchedulerRuns) {
  SimConfig config = SmallConfig();
  config.disk_sched = server::DiskSchedPolicy::kGss;
  config.gss_groups = 3;
  SimMetrics m = RunSimulation(config);
  EXPECT_EQ(m.glitches, 0u);
}

TEST(SimulationTest, PausesDoNotHurtLightLoad) {
  SimConfig config = SmallConfig();
  config.pause_enabled = true;
  SimMetrics m = RunSimulation(config);
  EXPECT_EQ(m.glitches, 0u);
}

TEST(SimulationTest, PiggybackReducesServerLoad) {
  SimConfig config = SmallConfig();
  config.terminals = 40;
  config.videos_per_disk = 1;  // few videos -> groups form often
  config.zipf_z = 1.5;
  // Small enough that the library does not just sit in the buffer pool.
  config.server_memory_bytes = 64LL * 1024 * 1024;
  config.warmup_seconds = 150.0;  // cover the batching delay
  SimMetrics solo = RunSimulation(config);
  config.piggyback_window_sec = 60.0;
  SimMetrics grouped = RunSimulation(config);
  EXPECT_LT(grouped.avg_disk_utilization, solo.avg_disk_utilization);
}

TEST(SimulationTest, SharedReferencesGrowWithSkew) {
  SimConfig config = SmallConfig();
  config.terminals = 40;
  config.server_memory_bytes = 1024LL * 1024 * 1024;
  config.zipf_z = 0.0;
  SimMetrics uniform = RunSimulation(config);
  config.zipf_z = 1.5;
  SimMetrics skewed = RunSimulation(config);
  EXPECT_GT(skewed.shared_reference_ratio(),
            uniform.shared_reference_ratio());
}

TEST(SimulationTest, ComponentAccessorsWork) {
  Simulation simulation(SmallConfig());
  EXPECT_EQ(simulation.num_terminals(), 20);
  EXPECT_EQ(simulation.server().num_nodes(), 2);
  EXPECT_EQ(simulation.library().count(), 16);
  EXPECT_EQ(simulation.layout().total_disks(), 4);
}

}  // namespace
}  // namespace spiffi::vod
