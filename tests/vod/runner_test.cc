// Determinism suite for the parallel experiment runner: the job count
// may change only wall-clock time, never results. Same config + seed
// must yield bit-identical SimMetrics through ParallelRunner at any job
// count, and the capacity search must return the same answer serial and
// parallel.

#include "vod/runner.h"

#include <vector>

#include "gtest/gtest.h"
#include "mpeg/video.h"
#include "scoped_jobs.h"
#include "vod/capacity.h"
#include "vod/metrics_testing.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

// Tiny configuration so each run takes a fraction of a second: 1 node,
// 2 disks, 2-minute videos, short windows (mirrors capacity_test).
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
  config.terminals = 30;
  return config;
}

// A tiny replicated configuration with live stochastic faults: disks
// fail roughly once per window and repair within it.
SimConfig TinyFaultyConfig() {
  SimConfig config = TinyConfig();
  config.num_nodes = 2;
  config.disks_per_node = 1;
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.fault_plan.disk_mtbf_sec = 60.0;
  config.fault_plan.disk_repair_mean_sec = 5.0;
  return config;
}

TEST(RunnerTest, ResolveJobsHonoursExplicitCount) {
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_GE(ResolveJobs(0), 1);   // default, whatever the machine has
  EXPECT_GE(ResolveJobs(-3), 1);
}

// A runner worker builds its simulation's video library serially, even
// where a build off the pool would fan out over several threads.
TEST(RunnerTest, WorkerBuildsItsLibrarySerially) {
  ScopedJobs jobs(4);
  SimConfig config = TinyConfig();
  config.videos_per_disk = 16;  // 32 videos: 4 build threads off the pool
  const mpeg::VideoLibrary off_pool(
      config.num_videos(), config.video_seconds, mpeg::MpegParams(),
      mpeg::ZipfDistribution(config.num_videos(), 1.0), 1);
  EXPECT_EQ(off_pool.build_threads(), 4);

  ParallelRunner runner(1);
  int worker_threads = 0;
  auto run = runner.Submit(config, [&](Simulation& sim) {
    worker_threads = sim.library().build_threads();
    return std::shared_ptr<void>();
  });
  ASSERT_TRUE(runner.Wait(run, nullptr));
  EXPECT_EQ(worker_threads, 1);
}

TEST(RunnerTest, SameSeedBitIdenticalAcrossJobCounts) {
  std::vector<SimConfig> batch;
  for (int i = 0; i < 6; ++i) {
    SimConfig config = TinyConfig();
    config.seed = 100 + i;
    config.terminals = 20 + 5 * i;
    batch.push_back(config);
  }

  ParallelRunner serial(1);
  ParallelRunner parallel(8);
  std::vector<SimMetrics> at_one = serial.RunAll(batch);
  std::vector<SimMetrics> at_eight = parallel.RunAll(batch);

  ASSERT_EQ(at_one.size(), batch.size());
  ASSERT_EQ(at_eight.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(at_one[i], at_eight[i]);
  }
  EXPECT_EQ(serial.stats().completed, batch.size());
  EXPECT_EQ(parallel.stats().completed, batch.size());
}

TEST(RunnerTest, RunnerMatchesDirectRunSimulation) {
  SimConfig config = TinyConfig();
  config.seed = 7;
  SimMetrics direct = RunSimulation(config);
  ParallelRunner runner(4);
  std::vector<SimMetrics> pooled = runner.RunAll({config});
  ASSERT_EQ(pooled.size(), 1u);
  ExpectBitIdentical(direct, pooled[0]);
}

TEST(RunnerTest, CancelledPendingRunNeverExecutes) {
  ParallelRunner runner(1);
  // Occupy the single worker, then cancel a queued run before it starts.
  ParallelRunner::RunHandle busy = runner.Submit(TinyConfig());
  ParallelRunner::RunHandle doomed = runner.Submit(TinyConfig());
  runner.Cancel(doomed);
  SimMetrics metrics;
  EXPECT_FALSE(runner.Wait(doomed, &metrics));
  EXPECT_TRUE(runner.Wait(busy, &metrics));
  EXPECT_EQ(runner.stats().completed, 1u);
  EXPECT_EQ(runner.stats().cancelled, 1u);
}

TEST(RunnerTest, CancelledRunningRunStopsEarly) {
  ParallelRunner runner(1);
  ParallelRunner::RunHandle run = runner.Submit(TinyConfig());
  runner.Cancel(run);  // may catch it pending or mid-run; both must stop
  SimMetrics metrics;
  EXPECT_FALSE(runner.Wait(run, &metrics));
}

TEST(RunnerTest, GlitchesAtAggregatesAcrossReplications) {
  // Regression: out_aggregate used to carry only the last replication,
  // so at_capacity reflected one seed instead of the replication set.
  SimConfig config = TinyConfig();
  const int kTerminals = 80;  // overloaded: glitches expected
  const int kReps = 3;

  std::uint64_t sum_direct = 0;
  std::uint64_t frames_direct = 0;
  std::vector<SimMetrics> singles;
  for (int r = 0; r < kReps; ++r) {
    SimConfig rep = config;
    rep.seed = config.seed + static_cast<std::uint64_t>(r);
    SimMetrics m;
    GlitchesAt(rep, kTerminals, 1, &m);
    sum_direct += m.glitches;
    frames_direct += m.frames_displayed;
    singles.push_back(m);
  }

  SimMetrics aggregate;
  std::uint64_t total = GlitchesAt(config, kTerminals, kReps, &aggregate);
  EXPECT_EQ(total, sum_direct);
  EXPECT_EQ(aggregate.glitches, sum_direct);
  EXPECT_EQ(aggregate.frames_displayed, frames_direct);
  // ...and not just the last replication's view.
  EXPECT_NE(aggregate.glitches, singles.back().glitches);

  // The parallel path aggregates identically.
  ParallelRunner runner(4);
  SimMetrics parallel_aggregate;
  std::uint64_t parallel_total =
      GlitchesAt(config, kTerminals, kReps, &parallel_aggregate, &runner);
  EXPECT_EQ(parallel_total, total);
  ExpectBitIdentical(aggregate, parallel_aggregate);
}

TEST(RunnerTest, AggregateReplicationsOfOneIsIdentity) {
  SimConfig config = TinyConfig();
  SimMetrics single = RunSimulation(config);
  SimMetrics aggregate = AggregateReplications({single});
  ExpectBitIdentical(single, aggregate);
}

TEST(RunnerTest, FaultPlanBitIdenticalAcrossJobCounts) {
  std::vector<SimConfig> batch;
  for (int i = 0; i < 4; ++i) {
    SimConfig config = TinyFaultyConfig();
    config.seed = 300 + i;
    config.terminals = 10 + 5 * i;
    batch.push_back(config);
  }

  ParallelRunner serial(1);
  ParallelRunner parallel(8);
  std::vector<SimMetrics> at_one = serial.RunAll(batch);
  std::vector<SimMetrics> at_eight = parallel.RunAll(batch);

  ASSERT_EQ(at_one.size(), batch.size());
  ASSERT_EQ(at_eight.size(), batch.size());
  bool saw_faults = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(at_one[i], at_eight[i]);
    saw_faults = saw_faults || at_one[i].faults_injected > 0;
  }
  // The plan must actually have exercised the fault machinery for the
  // comparison to mean anything.
  EXPECT_TRUE(saw_faults);
}

TEST(RunnerTest, CapacitySearchUnderFaultPlanIdenticalSerialVsParallel) {
  SimConfig config = TinyFaultyConfig();
  CapacitySearchOptions options;
  options.min_terminals = 2;
  options.max_terminals = 80;
  options.start_guess = 12;
  options.step = 8;
  options.replications = 2;

  options.jobs = 1;
  CapacityResult serial = FindMaxTerminals(config, options);
  options.jobs = 8;
  CapacityResult parallel = FindMaxTerminals(config, options);

  EXPECT_EQ(serial.max_terminals, parallel.max_terminals);
  EXPECT_EQ(serial.probes, parallel.probes);
  ExpectBitIdentical(serial.at_capacity, parallel.at_capacity);
}

TEST(RunnerTest, CapacitySearchIdenticalSerialVsParallel) {
  SimConfig config = TinyConfig();
  CapacitySearchOptions options;
  options.min_terminals = 2;
  options.max_terminals = 120;
  options.start_guess = 16;
  options.step = 8;
  options.replications = 2;

  options.jobs = 1;
  CapacityResult serial = FindMaxTerminals(config, options);
  options.jobs = 8;
  CapacityResult parallel = FindMaxTerminals(config, options);

  EXPECT_EQ(serial.max_terminals, parallel.max_terminals);
  // The speculative search walks the serial decision path: same probes,
  // same order, same verdicts.
  EXPECT_EQ(serial.probes, parallel.probes);
  ExpectBitIdentical(serial.at_capacity, parallel.at_capacity);
}

TEST(RunnerTest, GlitchCurveIdenticalSerialVsParallel) {
  SimConfig config = TinyConfig();
  std::vector<int> counts = {10, 40, 90};
  auto serial = GlitchCurve(config, counts, /*replications=*/2, /*jobs=*/1);
  auto parallel =
      GlitchCurve(config, counts, /*replications=*/2, /*jobs=*/8);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace spiffi::vod
