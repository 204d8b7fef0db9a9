// Determinism suite for the parallel experiment runner: the job count
// may change only wall-clock time, never results. Same config + seed
// must yield bit-identical SimMetrics through ParallelRunner at any job
// count, and every capacity search of a batch must walk its serial probe
// path at any job count.

#include "vod/runner.h"

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
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
  EXPECT_EQ(serial.SnapshotProgress().completed, batch.size());
  EXPECT_EQ(parallel.SnapshotProgress().completed, batch.size());
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
  const ParallelRunner::FleetProgress fleet = runner.SnapshotProgress();
  EXPECT_EQ(fleet.completed, 1u);
  EXPECT_EQ(fleet.cancelled, 1u);
}

TEST(RunnerTest, CancelledRunningRunStopsEarly) {
  ParallelRunner runner(1);
  // The run's setup holds it on the worker until the test has cancelled
  // it, so Cancel always meets a running run.
  std::promise<void> started;
  std::promise<void> cancel_sent;
  std::shared_future<void> cancelled = cancel_sent.get_future().share();
  ParallelRunner::RunHandle run =
      runner.Submit(TinyConfig(), [&](Simulation&) {
        started.set_value();
        cancelled.wait();
        return std::shared_ptr<void>();
      });
  started.get_future().wait();
  runner.Cancel(run);
  cancel_sent.set_value();
  SimMetrics metrics;
  EXPECT_FALSE(runner.Wait(run, &metrics));
}

TEST(RunnerTest, GlitchesAtAggregatesAcrossReplications) {
  // Regression: a replication set's aggregate used to carry only the
  // last replication, so at_capacity reflected one seed instead of the
  // set.
  const int kTerminals = 80;  // overloaded: glitches expected
  const int kReps = 3;
  std::vector<SimConfig> reps;
  for (int r = 0; r < kReps; ++r) {
    reps.push_back(TinyConfig());
    reps.back().terminals = kTerminals;
    reps.back().seed += static_cast<std::uint64_t>(r);
  }

  std::uint64_t sum_direct = 0;
  std::uint64_t frames_direct = 0;
  std::vector<SimMetrics> singles;
  for (const SimConfig& rep : reps) {
    singles.push_back(RunSimulation(rep));
    sum_direct += singles.back().glitches;
    frames_direct += singles.back().frames_displayed;
  }

  // The replications run on a runner aggregate in replication order.
  ParallelRunner runner(4);
  const SimMetrics aggregate = AggregateReplications(runner.RunAll(reps));
  EXPECT_EQ(aggregate.glitches, sum_direct);
  EXPECT_EQ(aggregate.frames_displayed, frames_direct);
  // ...and not just the last replication's view.
  EXPECT_NE(aggregate.glitches, singles.back().glitches);
  ExpectBitIdentical(aggregate, AggregateReplications(singles));
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

// A batch of searches that differ in start guess, step, ceiling and
// replications, one of them on the faulty configuration and one that
// glitches at every probe. The expected values are each search's walk
// by the retired serial driver (one probe at a time in the calling
// thread), frozen as exact values (doubles in hexfloat); never
// regenerate them from FindCapacities. Fields left out of a metrics
// golden are zero.
struct PinnedSearch {
  CapacitySearch search;
  std::vector<std::pair<int, std::uint64_t>> probes;
  int max_terminals;
  SimMetrics at_capacity;
};

CapacitySearchOptions Options(int min, int max, int start, int step,
                              int replications) {
  CapacitySearchOptions options;
  options.min_terminals = min;
  options.max_terminals = max;
  options.start_guess = start;
  options.step = step;
  options.replications = replications;
  return options;
}

std::vector<PinnedSearch> PinnedSearches() {
  SimConfig seed11 = TinyConfig();
  seed11.seed = 11;
  return {
      {{TinyConfig(), Options(2, 120, 16, 8, 2)},
       {{16, 0}, {32, 0}, {64, 339}, {48, 55}, {40, 0}},
       40,
       {
           .terminals = 40,
           .measured_seconds = 0x1.4p+5,
           .avg_disk_utilization = 0x1.d699ec56d8423p-1,
           .min_disk_utilization = 0x1.c4654b338fba3p-1,
           .max_disk_utilization = 0x1.e82517ca3ce4bp-1,
           .avg_cpu_utilization = 0x1.61b866e43ac26p-6,
           .peak_network_bytes_per_sec = 0x1.7e10bbp+24,
           .avg_network_bytes_per_sec = 0x1.3b57adf99999ap+24,
           .buffer_references = 1599u,
           .buffer_hits = 1032u,
           .buffer_attaches = 18u,
           .buffer_misses = 549u,
           .shared_references = 601u,
           .prefetches_issued = 462u,
           .disk_reads = 1003u,
           .avg_disk_service_ms = 0x1.25828b4203cb9p+6,
           .avg_seek_cylinders = 0x1.626c16ca5278ap+5,
           .avg_response_ms = 0x1.786d3777aa9c8p+6,
           .p50_response_ms = 0x1.546a41d0ebe0dp+4,
           .p99_response_ms = 0x1.299ca62c4b5cep+9,
           .frames_displayed = 47903u,
           .videos_completed = 21u,
           .events_simulated = 90232u,
       }},
      {{TinyFaultyConfig(), Options(2, 80, 12, 2, 2)},
       {{12, 3}, {6, 0}, {9, 4}, {7, 2}},
       6,
       {
           .terminals = 6,
           .measured_seconds = 0x1.4p+5,
           .avg_disk_utilization = 0x1.9b02593620d8cp-3,
           .min_disk_utilization = 0x1.b51c5073a11b3p-4,
           .max_disk_utilization = 0x1.681ba0661989ap-2,
           .avg_cpu_utilization = 0x1.0cc144028e29ap-9,
           .peak_network_bytes_per_sec = 0x1.20058p+23,
           .avg_network_bytes_per_sec = 0x1.8d7e2a6666666p+21,
           .buffer_references = 246u,
           .buffer_hits = 126u,
           .buffer_attaches = 7u,
           .buffer_misses = 113u,
           .shared_references = 41u,
           .wasted_prefetches = 4u,
           .prefetches_issued = 103u,
           .disk_reads = 222u,
           .avg_disk_service_ms = 0x1.21791ca4c30fep+6,
           .avg_seek_cylinders = 0x1.3f78618618618p+5,
           .avg_response_ms = 0x1.219420e709e98p+7,
           .p50_response_ms = 0x1.cafa7acab70b9p+5,
           .p99_response_ms = 0x1.46bef43d94878p+10,
           .frames_displayed = 7175u,
           .videos_completed = 4u,
           .events_simulated = 14803u,
           .faults_injected = 2u,
           .repairs_completed = 2u,
           .mttr_sec = 0x1.0b8f2b2f7e95p+1,
           .fault_downtime_sec = 0x1.8cf1ffc14d67p+3,
           .rerouted_requests = 2u,
           .degraded_waits = 5u,
           .requests_redirected = 37u,
           .blocks_rerouted = 5u,
       }},
      {{seed11, Options(5, 60, 50, 4, 1)},
       {{50, 130}, {25, 0}, {37, 7}, {31, 0}, {34, 0}},
       34,
       {
           .terminals = 34,
           .measured_seconds = 0x1.4p+4,
           .avg_disk_utilization = 0x1.a7b76d51c35eap-1,
           .min_disk_utilization = 0x1.9f818e3b29902p-1,
           .max_disk_utilization = 0x1.afed4c685d2d3p-1,
           .avg_cpu_utilization = 0x1.317481b21c51ap-6,
           .peak_network_bytes_per_sec = 0x1.4808cp+24,
           .avg_network_bytes_per_sec = 0x1.12fc298cccccdp+24,
           .buffer_references = 674u,
           .buffer_hits = 422u,
           .buffer_attaches = 14u,
           .buffer_misses = 238u,
           .shared_references = 253u,
           .prefetches_issued = 199u,
           .disk_reads = 454u,
           .avg_disk_service_ms = 0x1.23e84dd2456f4p+6,
           .avg_seek_cylinders = 0x1.5285132bfb7d3p+5,
           .avg_response_ms = 0x1.0c018f873272fp+7,
           .p50_response_ms = 0x1.546a41d0ebe0dp+4,
           .p99_response_ms = 0x1.1187dce02eecep+10,
           .frames_displayed = 20366u,
           .videos_completed = 5u,
           .events_simulated = 38819u,
       }},
      // Glitches at every probe down to its floor: capacity 0.
      {{TinyConfig(), Options(100, 400, 200, 10, 1)},
       {{200, 231}, {100, 269}},
       0,
       {}},
  };
}

class RunnerBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(RunnerBatchTest, EverySearchWalksItsSerialPath) {
  const std::vector<PinnedSearch> pinned = PinnedSearches();
  std::vector<CapacitySearch> searches;
  for (const PinnedSearch& p : pinned) {
    searches.push_back(p.search);
    searches.back().options.jobs = GetParam();
  }
  const std::vector<CapacityResult> results = FindCapacities(searches);
  ASSERT_EQ(results.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE("search " + std::to_string(i));
    EXPECT_EQ(results[i].probes, pinned[i].probes);
    EXPECT_EQ(results[i].max_terminals, pinned[i].max_terminals);
    ExpectBitIdentical(results[i].at_capacity, pinned[i].at_capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, RunnerBatchTest, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// A lone search keeps max(2, ceil(jobs / replications)) points
// outstanding, the schedule of the retired speculative driver: at 4
// jobs and one replication, 4 points, which for this search submit the
// 10 runs that driver submitted for its 5 realized probes.
TEST(RunnerTest, LoneSearchKeepsItsSpeculativeSchedule) {
  CapacitySearchOptions options = Options(2, 120, 16, 8, 1);
  options.jobs = 4;
  ParallelRunner runner(4);
  const std::vector<CapacityResult> results =
      FindCapacities({{TinyConfig(), options}}, runner);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].probes.size(), 5u);
  EXPECT_EQ(runner.SnapshotProgress().submitted, 10u);
}

// Every run the walk cancelled has left its worker by the time
// FindCapacities returns. A worker that popped a speculative probe just
// before its cancel still constructs that probe's Simulation, which must
// happen while the search's library pins hold.
TEST(RunnerTest, FindCapacitiesLeavesNoRunInFlight) {
  CapacitySearchOptions options = Options(2, 120, 16, 8, 1);
  options.jobs = 4;
  ParallelRunner runner(4);
  FindCapacities({{TinyConfig(), options}}, runner);
  const ParallelRunner::FleetProgress fleet = runner.SnapshotProgress();
  EXPECT_EQ(fleet.running, 0u);
  EXPECT_EQ(fleet.pending, 0u);
}

TEST(RunnerTest, CapacitySearchUnderFaultPlanIdenticalSerialVsParallel) {
  SimConfig config = TinyFaultyConfig();
  CapacitySearchOptions options = Options(2, 80, 12, 8, 2);

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
  CapacitySearchOptions options = Options(2, 120, 16, 8, 2);

  options.jobs = 1;
  CapacityResult serial = FindMaxTerminals(config, options);
  options.jobs = 8;
  CapacityResult parallel = FindMaxTerminals(config, options);

  EXPECT_EQ(serial.max_terminals, parallel.max_terminals);
  // A lone search walks the serial decision path at any job count: same
  // probes, same order, same verdicts.
  EXPECT_EQ(serial.probes, parallel.probes);
  ExpectBitIdentical(serial.at_capacity, parallel.at_capacity);
}

// A glitch curve (paper Fig 9) is one RunAll batch of every (terminal
// count, replication) run.
TEST(RunnerTest, GlitchCurveIdenticalSerialVsParallel) {
  std::vector<SimConfig> curve;
  for (int terminals : {10, 40, 90}) {
    for (std::uint64_t replication = 0; replication < 2; ++replication) {
      SimConfig config = TinyConfig();
      config.terminals = terminals;
      config.seed += replication;
      curve.push_back(config);
    }
  }
  ParallelRunner serial(1);
  ParallelRunner parallel(8);
  const std::vector<SimMetrics> at_one = serial.RunAll(curve);
  const std::vector<SimMetrics> at_eight = parallel.RunAll(curve);
  ASSERT_EQ(at_one.size(), curve.size());
  ASSERT_EQ(at_eight.size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    ExpectBitIdentical(at_one[i], at_eight[i]);
  }
}

}  // namespace
}  // namespace spiffi::vod
