// End-to-end degraded-mode service: scripted outages against the whole
// simulation, comparing chained-declustered replication with plain
// striping. These tests lock the subsystem's headline behaviour — a
// replicated system keeps every stream moving through a disk outage by
// re-routing reads to the surviving copy, while plain striping takes a
// glitch burst on every stream that crosses the dead disk — and the
// accounting invariant that every late block is attributed to exactly
// one pipeline stage (none vanish unattributed).

#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

// 2 nodes x 2 disks, 2-minute videos, measurement window [15, 45).
SimConfig BaseFaultConfig() {
  SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 64LL * 1024 * 1024;  // small pool: misses
  config.terminals = 12;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  return config;
}

// Global disk 0 (node 0, local 0) is down for [20, 35): the middle half
// of the measurement window.
void ScriptDiskOutage(SimConfig* config) {
  config->fault_plan.script.push_back(
      {20.0, fault::FaultKind::kDiskFail, 0});
  config->fault_plan.script.push_back(
      {35.0, fault::FaultKind::kDiskRecover, 0});
}

TEST(DegradedReadTest, ReplicatedServesThroughDiskOutage) {
  SimConfig config = BaseFaultConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  ScriptDiskOutage(&config);

  Simulation simulation(config);
  SimMetrics m = simulation.Run();

  // The outage was seen and repaired inside the window.
  EXPECT_EQ(m.faults_injected, 1u);
  EXPECT_EQ(m.repairs_completed, 1u);
  EXPECT_DOUBLE_EQ(m.mttr_sec, 15.0);
  EXPECT_DOUBLE_EQ(m.fault_downtime_sec, 15.0);

  // Reads that would have hit the dead disk reached the surviving copy:
  // redirected at issue by fault-aware terminals, or re-routed between
  // nodes for requests already in flight.
  EXPECT_GT(m.requests_redirected + m.rerouted_requests, 0u);

  // Every stream keeps playing: ~12 terminals x 30 fps x 30 s.
  double expected_frames = 12 * 30.0 * 30.0;
  EXPECT_GT(static_cast<double>(m.frames_displayed),
            expected_frames * 0.9);

  // The headline: the surviving copy absorbs the outage.
  EXPECT_EQ(m.glitches, 0u);
}

TEST(DegradedReadTest, StripedTakesAGlitchBurstUnderTheSameOutage) {
  SimConfig config = BaseFaultConfig();
  config.placement = VideoPlacement::kStriped;
  ScriptDiskOutage(&config);

  Simulation simulation(config);
  SimMetrics m = simulation.Run();

  // No copies to fall back on: streams crossing disk 0 stall until the
  // repair and glitch.
  EXPECT_GT(m.glitches, 0u);
  EXPECT_GT(m.terminals_with_glitches, 0);
  EXPECT_EQ(m.requests_redirected, 0u);  // nowhere to redirect to
  EXPECT_EQ(m.rerouted_requests, 0u);
  EXPECT_GT(m.degraded_waits, 0u);  // requests parked awaiting repair

  // Zero unattributed glitches: every late block lands in exactly one
  // attribution bucket, and the stalls show up as fault time.
  const obs::MetricsRegistry& registry = simulation.metrics();
  double attributed =
      registry.Value("terminal.late_attrib.network") +
      registry.Value("terminal.late_attrib.server_cpu") +
      registry.Value("terminal.late_attrib.disk_queue") +
      registry.Value("terminal.late_attrib.disk_service") +
      registry.Value("terminal.late_attrib.fault");
  EXPECT_EQ(attributed, registry.Value("terminal.late_blocks"));
  EXPECT_GT(registry.Value("terminal.late_attrib.fault"), 0.0);
}

TEST(DegradedReadTest, ReplicatedBeatsStripedUnderTheSameOutage) {
  SimConfig striped = BaseFaultConfig();
  striped.placement = VideoPlacement::kStriped;
  ScriptDiskOutage(&striped);
  SimConfig replicated = BaseFaultConfig();
  replicated.placement = VideoPlacement::kReplicatedStriped;
  replicated.replica_count = 2;
  ScriptDiskOutage(&replicated);

  SimMetrics s = RunSimulation(striped);
  SimMetrics r = RunSimulation(replicated);
  EXPECT_LT(r.glitches, s.glitches);
  EXPECT_GT(r.frames_displayed, s.frames_displayed);
}

TEST(DegradedReadTest, NodeCrashReroutesToChainSuccessor) {
  SimConfig config = BaseFaultConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.fault_plan.script.push_back(
      {20.0, fault::FaultKind::kNodeFail, 1});
  config.fault_plan.script.push_back(
      {30.0, fault::FaultKind::kNodeRecover, 1});

  Simulation simulation(config);
  SimMetrics m = simulation.Run();
  EXPECT_EQ(m.faults_injected, 1u);
  EXPECT_EQ(m.repairs_completed, 1u);
  EXPECT_GT(m.requests_redirected + m.rerouted_requests, 0u);
  double expected_frames = 12 * 30.0 * 30.0;
  EXPECT_GT(static_cast<double>(m.frames_displayed),
            expected_frames * 0.9);
}

TEST(DegradedReadTest, LimpingDiskSlowsServiceWithoutStoppingIt) {
  SimConfig healthy = BaseFaultConfig();
  SimConfig limping = BaseFaultConfig();
  // Every disk limps at 3x for the whole measurement window.
  for (int d = 0; d < 4; ++d) {
    limping.fault_plan.script.push_back(
        {16.0, fault::FaultKind::kDiskLimpBegin, d, 3.0});
  }

  SimMetrics h = RunSimulation(healthy);
  SimMetrics l = RunSimulation(limping);
  EXPECT_GT(l.avg_disk_service_ms, h.avg_disk_service_ms * 2.0);
  // Light load: 3x slower disks still feed every stream.
  EXPECT_GT(l.frames_displayed, h.frames_displayed / 2);
}

TEST(DegradedReadTest, SameFaultPlanAndSeedIsReproducible) {
  SimConfig config = BaseFaultConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  ScriptDiskOutage(&config);
  config.fault_plan.disk_mtbf_sec = 200.0;  // stochastic on top
  config.fault_plan.disk_repair_mean_sec = 5.0;

  SimMetrics a = RunSimulation(config);
  SimMetrics b = RunSimulation(config);
  EXPECT_EQ(a.glitches, b.glitches);
  EXPECT_EQ(a.events_simulated, b.events_simulated);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.rerouted_requests, b.rerouted_requests);
  EXPECT_EQ(a.requests_redirected, b.requests_redirected);
  EXPECT_EQ(a.fault_downtime_sec, b.fault_downtime_sec);
  EXPECT_EQ(a.mttr_sec, b.mttr_sec);
}

TEST(DegradedReadTest, FaultMetricsAreZeroWithoutAPlan) {
  SimConfig config = BaseFaultConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  Simulation simulation(config);
  SimMetrics m = simulation.Run();
  EXPECT_EQ(simulation.fault_state(), nullptr);
  EXPECT_EQ(m.faults_injected, 0u);
  EXPECT_EQ(m.rerouted_requests, 0u);
  EXPECT_EQ(m.requests_redirected, 0u);
  EXPECT_EQ(m.degraded_waits, 0u);
  EXPECT_DOUBLE_EQ(m.mttr_sec, 0.0);
  EXPECT_EQ(m.glitches, 0u);
}

TEST(DegradedReadTest, FaultEventsAppearOnTheFaultTrack) {
  SimConfig config = BaseFaultConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  ScriptDiskOutage(&config);

  Simulation simulation(config);
  obs::Tracer& tracer = simulation.EnableTracing(512 * 1024);
  simulation.Run();

  int fault_events = 0;
  bool saw_outage_span = false;
  bool saw_reroute_or_skip = false;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent& event = tracer.event(i);
    if (event.category != obs::TraceCategory::kFault) continue;
    ++fault_events;
    if (event.phase == 'X' && std::string(event.name) == "disk_down") {
      saw_outage_span = true;
      EXPECT_EQ(event.pid, obs::Tracer::kFaultPid);
      EXPECT_EQ(event.tid, 0);  // disk 0's row
    }
    if (std::string(event.name) == "reroute" ||
        std::string(event.name) == "prefetch_skip_dead_disk" ||
        std::string(event.name) == "prefetch_drop_disk_down") {
      saw_reroute_or_skip = true;
    }
  }
  EXPECT_GE(fault_events, 2);  // at least the fail + recover instants
  EXPECT_TRUE(saw_outage_span);
  (void)saw_reroute_or_skip;  // populated under server-side rerouting

  std::ostringstream out;
  tracer.WriteChromeJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
  EXPECT_NE(json.find("disk_fail"), std::string::npos);
}

}  // namespace
}  // namespace spiffi::vod
