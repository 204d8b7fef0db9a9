#include "fault/injector.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/tracer.h"
#include "sim/environment.h"
#include "sim/random.h"

namespace spiffi::fault {
namespace {

// Records every effect-handler callback for assertions.
struct EventLog {
  std::vector<FaultEvent> events;
  FaultInjector::EffectHandler Handler() {
    return [this](const FaultEvent& event) { events.push_back(event); };
  }
};

TEST(FaultInjectorTest, ScriptedActionsFireAtTheirTimes) {
  sim::Environment env;
  FaultState state(2, 2);
  FaultPlan plan;
  plan.script.push_back({10.0, FaultKind::kDiskFail, 1});
  plan.script.push_back({25.0, FaultKind::kDiskRecover, 1});
  plan.script.push_back({30.0, FaultKind::kNodeFail, 0});
  FaultInjector injector(&env, plan, &state, sim::Rng(7).Child(3));
  EventLog log;
  injector.set_effect_handler(log.Handler());
  injector.Start();

  env.RunUntil(12.0);
  EXPECT_FALSE(state.disk_up(1));
  env.RunUntil(26.0);
  EXPECT_TRUE(state.disk_up(1));
  EXPECT_TRUE(state.node_up(0));
  env.RunUntil(31.0);
  EXPECT_FALSE(state.node_up(0));

  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_DOUBLE_EQ(log.events[0].time, 10.0);
  EXPECT_EQ(log.events[0].kind, FaultKind::kDiskFail);
  EXPECT_EQ(log.events[0].target, 1);
  EXPECT_TRUE(log.events[0].applied);
  EXPECT_DOUBLE_EQ(log.events[1].time, 25.0);
  EXPECT_EQ(log.events[1].kind, FaultKind::kDiskRecover);
  EXPECT_DOUBLE_EQ(log.events[2].time, 30.0);
  EXPECT_EQ(injector.events_fired(), 3u);
}

TEST(FaultInjectorTest, OverlappingScriptedFaultsAreIdempotent) {
  sim::Environment env;
  FaultState state(1, 2);
  FaultPlan plan;
  plan.script.push_back({5.0, FaultKind::kDiskFail, 0});
  plan.script.push_back({6.0, FaultKind::kDiskFail, 0});  // already down
  plan.script.push_back({8.0, FaultKind::kDiskRecover, 0});
  FaultInjector injector(&env, plan, &state, sim::Rng(7).Child(3));
  EventLog log;
  injector.set_effect_handler(log.Handler());
  injector.Start();
  env.RunUntil(10.0);

  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_TRUE(log.events[0].applied);
  EXPECT_FALSE(log.events[1].applied);  // duplicate fail: no state change
  EXPECT_TRUE(log.events[2].applied);
  // The outage is charged from the FIRST fail, and counted once.
  FaultState::Stats stats = state.StatsAt(10.0);
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_DOUBLE_EQ(stats.downtime_sec, 3.0);
}

TEST(FaultInjectorTest, StochasticProcessCyclesFailAndRepair) {
  sim::Environment env;
  FaultState state(2, 2);
  FaultPlan plan;
  plan.disk_mtbf_sec = 20.0;
  plan.disk_repair_mean_sec = 5.0;
  FaultInjector injector(&env, plan, &state, sim::Rng(11).Child(3));
  EventLog log;
  injector.set_effect_handler(log.Handler());
  injector.Start();
  env.RunUntil(500.0);

  // Over 25 expected MTBFs per disk, each disk must both fail and
  // recover at least once, alternating.
  FaultState::Stats stats = state.StatsAt(500.0);
  EXPECT_GT(stats.faults_injected, 4u);
  EXPECT_GT(stats.repairs_completed, 4u);
  EXPECT_GT(stats.downtime_sec, 0.0);
  EXPECT_GT(state.MttrSec(), 0.0);
  bool saw_fail = false;
  bool saw_recover = false;
  for (const FaultEvent& event : log.events) {
    EXPECT_TRUE(event.applied);  // a private process never overlaps itself
    saw_fail = saw_fail || event.kind == FaultKind::kDiskFail;
    saw_recover = saw_recover || event.kind == FaultKind::kDiskRecover;
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_recover);
}

TEST(FaultInjectorTest, StochasticLimpEpisodesScaleServiceTimes) {
  sim::Environment env;
  FaultState state(1, 1);
  FaultPlan plan;
  plan.limp_mtbf_sec = 10.0;
  plan.limp_duration_mean_sec = 5.0;
  plan.limp_factor = 3.0;
  FaultInjector injector(&env, plan, &state, sim::Rng(5).Child(3));
  EventLog log;
  injector.set_effect_handler(log.Handler());
  injector.Start();
  env.RunUntil(200.0);

  EXPECT_GT(state.StatsAt(200.0).limp_episodes, 1u);
  bool saw_scaled = false;
  for (const FaultEvent& event : log.events) {
    if (event.kind == FaultKind::kDiskLimpBegin) {
      EXPECT_DOUBLE_EQ(event.factor, 3.0);
      saw_scaled = true;
    }
  }
  EXPECT_TRUE(saw_scaled);
}

// The determinism contract: the same plan, topology, and seed produce
// the exact same event sequence, independent of anything else in the
// simulation (per-component child streams).
TEST(FaultInjectorTest, SameSeedReplaysBitIdentically) {
  auto run = [] {
    sim::Environment env;
    FaultState state(2, 4);
    FaultPlan plan;
    plan.script.push_back({3.0, FaultKind::kNodeFail, 1});
    plan.script.push_back({8.0, FaultKind::kNodeRecover, 1});
    plan.disk_mtbf_sec = 30.0;
    plan.disk_repair_mean_sec = 4.0;
    plan.limp_mtbf_sec = 50.0;
    FaultInjector injector(&env, plan, &state, sim::Rng(42).Child(3));
    EventLog log;
    injector.set_effect_handler(log.Handler());
    injector.Start();
    env.RunUntil(300.0);
    return log.events;
  };
  std::vector<FaultEvent> a = run();
  std::vector<FaultEvent> b = run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].time, b[i].time);  // bit-exact, not NEAR
    EXPECT_EQ(a[i].applied, b[i].applied);
  }
}

TEST(FaultInjectorTest, EmitsFaultTrackTraceEvents) {
  sim::Environment env;
  obs::Tracer& tracer = env.EnableTracing(4096);
  FaultState state(2, 2);
  FaultPlan plan;
  plan.script.push_back({5.0, FaultKind::kDiskFail, 2});
  plan.script.push_back({9.0, FaultKind::kDiskRecover, 2});
  plan.script.push_back({12.0, FaultKind::kNodeFail, 0});
  plan.script.push_back({14.0, FaultKind::kNodeRecover, 0});
  FaultInjector injector(&env, plan, &state, sim::Rng(1).Child(3));
  injector.Start();
  env.RunUntil(20.0);

  bool saw_disk_instant = false;
  bool saw_disk_down_span = false;
  bool saw_node_down_span = false;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent& event = tracer.event(i);
    if (event.category != obs::TraceCategory::kFault) continue;
    EXPECT_EQ(event.pid, obs::Tracer::kFaultPid);
    if (event.phase == 'i' && event.tid == 2) {
      // Disk events ride the disk's own row and carry its ids.
      saw_disk_instant = true;
      ASSERT_GE(event.num_args, 1);
      EXPECT_STREQ(event.args[0].key, "disk");
      EXPECT_DOUBLE_EQ(event.args[0].value, 2.0);
    }
    if (event.phase == 'X' && std::string(event.name) == "disk_down") {
      saw_disk_down_span = true;
      EXPECT_DOUBLE_EQ(event.ts, 5.0);
      EXPECT_DOUBLE_EQ(event.end_ts, 9.0);
    }
    if (event.phase == 'X' && std::string(event.name) == "node_down") {
      saw_node_down_span = true;
      // Node rows sit above the disk rows: tid = total_disks + node.
      EXPECT_EQ(event.tid, state.total_disks() + 0);
      EXPECT_DOUBLE_EQ(event.ts, 12.0);
      EXPECT_DOUBLE_EQ(event.end_ts, 14.0);
    }
  }
  EXPECT_TRUE(saw_disk_instant);
  EXPECT_TRUE(saw_disk_down_span);
  EXPECT_TRUE(saw_node_down_span);
}

}  // namespace
}  // namespace spiffi::fault
