#include "vod/telemetry.h"

#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "vod/runner.h"

namespace spiffi::vod {
namespace {

SimConfig SmallConfig(int terminals = 10) {
  SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 256LL * 1024 * 1024;
  config.terminals = terminals;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  return config;
}

// Telemetry attachment for runner-executed simulations: the stream and
// recorder live together so the worker's keepalive covers both.
struct Attachment {
  std::ostringstream jsonl;
  std::unique_ptr<TelemetryRecorder> telemetry;
};

std::pair<ParallelRunner::RunHandle, std::shared_ptr<Attachment>>
AttachTelemetry(ParallelRunner& runner, const SimConfig& config) {
  auto attachment = std::make_shared<Attachment>();
  ParallelRunner::RunHandle handle =
      runner.Submit(config, [attachment](Simulation& sim) {
        TelemetryOptions options;
        options.interval_sec = 1.0;
        options.jsonl = &attachment->jsonl;
        attachment->telemetry =
            std::make_unique<TelemetryRecorder>(&sim, options);
        return attachment;
      });
  return {std::move(handle), std::move(attachment)};
}

// Column `name` of every retained snapshot.
std::vector<double> Column(const obs::TimeSeries& series,
                           const std::string& name) {
  const std::size_t column = series.ColumnIndex(name);
  std::vector<double> values;
  for (std::size_t row = 0; row < series.size(); ++row) {
    values.push_back(series.value(row, column));
  }
  return values;
}

TEST(TelemetryTest, RegistersExpectedChannels) {
  Simulation sim(SmallConfig());
  TelemetryOptions options;
  TelemetryRecorder telemetry(&sim, options);
  const obs::TimeSeries& series = telemetry.series();
  for (const char* column :
       {"disks.busy", "disks.total", "disks.queue_avg", "cpus.busy",
        "pool.pages_in_use", "terminals.priming", "terminals.playing",
        "disks.reads_total", "disks.reads_delta", "pool.references_total",
        "pool.hits_total", "network.bytes_total", "network.bytes_delta",
        "terminals.glitches_total", "terminals.glitches_delta",
        "terminals.frames_total"}) {
    EXPECT_LT(series.ColumnIndex(column), series.columns().size())
        << column;
  }
}

TEST(TelemetryTest, FaultChannelsOnlyWithFaultPlan) {
  SimConfig healthy = SmallConfig();
  Simulation healthy_sim(healthy);
  TelemetryRecorder healthy_telemetry(&healthy_sim, TelemetryOptions());
  for (const std::string& column : healthy_telemetry.series().columns()) {
    EXPECT_EQ(column.find("fault."), std::string::npos) << column;
  }

  SimConfig faulty = SmallConfig();
  fault::FaultAction fail;
  fail.time = 20.0;
  fail.kind = fault::FaultKind::kDiskFail;
  fail.target = 0;
  fault::FaultAction repair;
  repair.time = 25.0;
  repair.kind = fault::FaultKind::kDiskRecover;
  repair.target = 0;
  faulty.placement = VideoPlacement::kReplicatedStriped;
  faulty.fault_plan.script = {fail, repair};
  Simulation faulty_sim(faulty);
  TelemetryRecorder faulty_telemetry(&faulty_sim, TelemetryOptions());
  const obs::TimeSeries& series = faulty_telemetry.series();
  EXPECT_LT(series.ColumnIndex("fault.disks_down"),
            series.columns().size());
  EXPECT_LT(series.ColumnIndex("fault.faults_injected_total"),
            series.columns().size());
}

TEST(TelemetryTest, SamplesAtFixedSimulatedInterval) {
  Simulation sim(SmallConfig());
  TelemetryOptions options;
  options.interval_sec = 1.0;
  TelemetryRecorder telemetry(&sim, options);
  sim.Run();
  // 45 simulated seconds at 1 s intervals.
  EXPECT_GE(telemetry.series().size(), 44u);
  EXPECT_LE(telemetry.series().size(), 46u);
}

TEST(TelemetryTest, RetentionBoundsMemoryWithoutLosingStream) {
  std::ostringstream jsonl;
  Simulation sim(SmallConfig());
  TelemetryOptions options;
  options.interval_sec = 1.0;
  options.retention = 5;
  options.jsonl = &jsonl;
  TelemetryRecorder telemetry(&sim, options);
  sim.Run();
  EXPECT_EQ(telemetry.series().size(), 5u);
  EXPECT_GE(telemetry.series().total_samples(), 44u);
  std::size_t lines = 0;
  for (char c : jsonl.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, telemetry.series().total_samples());
}

TEST(TelemetryTest, JsonlBitIdenticalAcrossJobCounts) {
  const SimConfig config = SmallConfig();

  // Serial reference: recorder attached directly.
  std::ostringstream reference;
  {
    Simulation sim(config);
    TelemetryOptions options;
    options.interval_sec = 1.0;
    options.jsonl = &reference;
    TelemetryRecorder telemetry(&sim, options);
    sim.Run();
  }
  ASSERT_FALSE(reference.str().empty());

  // The same run executed by the parallel runner at several job counts,
  // alongside sibling runs competing for workers, must stream the same
  // bytes: sampling happens in simulated time, so thread scheduling
  // cannot perturb it.
  for (int jobs : {1, 2, 4}) {
    ParallelRunner runner(jobs);
    std::vector<std::pair<ParallelRunner::RunHandle,
                          std::shared_ptr<Attachment>>> runs;
    for (int i = 0; i < 3; ++i) {
      runs.push_back(AttachTelemetry(runner, config));
    }
    for (const auto& [handle, attachment] : runs) {
      ASSERT_TRUE(runner.Wait(handle, nullptr));
      EXPECT_EQ(attachment->jsonl.str(), reference.str())
          << "jobs=" << jobs;
    }
  }
}

TEST(TelemetryTest, RunnerExposesLiveRunProgress) {
  ParallelRunner runner(2);
  SimConfig config = SmallConfig();
  ParallelRunner::RunHandle run = runner.Submit(config);
  SimMetrics metrics;
  ASSERT_TRUE(runner.Wait(run, &metrics));

  EXPECT_EQ(run->state, ParallelRunner::Run::State::kDone);
  RunProgress progress;
  {
    std::lock_guard<std::mutex> lock(run->progress_mutex);
    progress = run->progress;
  }
  // The final slice boundary reports the exact end of the run.
  EXPECT_DOUBLE_EQ(progress.sim_now_seconds,
                   config.warmup_seconds + config.measure_seconds);
  EXPECT_DOUBLE_EQ(progress.sim_end_seconds,
                   config.warmup_seconds + config.measure_seconds);
  EXPECT_TRUE(progress.in_measurement);
  // The run's total event count includes warmup, so it dominates the
  // measurement-window count SimMetrics reports.
  EXPECT_GE(progress.events_fired, metrics.events_simulated);
  EXPECT_GT(metrics.events_simulated, 0u);

  ParallelRunner::FleetProgress fleet = runner.SnapshotProgress();
  EXPECT_EQ(fleet.submitted, 1u);
  EXPECT_EQ(fleet.completed, 1u);
  EXPECT_EQ(fleet.running, 0u);
  EXPECT_EQ(fleet.pending, 0u);
  EXPECT_DOUBLE_EQ(fleet.target_sim_seconds,
                   config.warmup_seconds + config.measure_seconds);
  EXPECT_DOUBLE_EQ(fleet.done_sim_seconds, fleet.target_sim_seconds);
  EXPECT_GE(fleet.events_fired, metrics.events_simulated);
}

TEST(TelemetryTest, FleetSnapshotAggregatesAllRunners) {
  SimConfig config = SmallConfig(5);
  ParallelRunner first(1);
  ParallelRunner second(1);
  first.RunAll({config, config});
  second.RunAll({config});
  ParallelRunner::FleetProgress fleet =
      ParallelRunner::SnapshotAllRunners();
  EXPECT_GE(fleet.submitted, 3u);
  EXPECT_GE(fleet.completed, 3u);
  EXPECT_DOUBLE_EQ(fleet.done_sim_seconds, fleet.target_sim_seconds);
}

TEST(TelemetryTest, CancelledRunLeavesTargetConsistent) {
  ParallelRunner runner(1);
  SimConfig config = SmallConfig();
  // First run occupies the single worker; the second is cancelled while
  // pending and must drop back out of the fleet's sim-time target.
  ParallelRunner::RunHandle busy = runner.Submit(config);
  ParallelRunner::RunHandle doomed = runner.Submit(config);
  runner.Cancel(doomed);
  EXPECT_FALSE(runner.Wait(doomed, nullptr));
  ASSERT_TRUE(runner.Wait(busy, nullptr));
  ParallelRunner::FleetProgress fleet = runner.SnapshotProgress();
  EXPECT_EQ(fleet.cancelled, 1u);
  EXPECT_DOUBLE_EQ(fleet.target_sim_seconds,
                   config.warmup_seconds + config.measure_seconds);
  EXPECT_DOUBLE_EQ(fleet.done_sim_seconds, fleet.target_sim_seconds);
}

// The TraceTest cases read the telemetry series as a sampled trace of a
// run: one row per sample, gauges plus *_total/*_delta counter columns.
struct TraceRun {
  TraceRun(int terminals, double interval_sec)
      : sim(SmallConfig(terminals)),
        telemetry(&sim, Options(interval_sec)) {
    sim.Run();
  }
  static TelemetryOptions Options(double interval_sec) {
    TelemetryOptions options;
    options.interval_sec = interval_sec;
    return options;
  }
  const obs::TimeSeries& series() const { return telemetry.series(); }

  Simulation sim;
  TelemetryRecorder telemetry;
};

TEST(TraceTest, SamplesAtRequestedInterval) {
  TraceRun run(10, 1.0);
  const obs::TimeSeries& series = run.series();
  // 45 simulated seconds at 1 s intervals.
  ASSERT_GE(series.size(), 44u);
  ASSERT_LE(series.size(), 46u);
  EXPECT_NEAR(series.time(0), 1.0, 1e-9);
  EXPECT_NEAR(series.time(1) - series.time(0), 1.0, 1e-9);
}

TEST(TraceTest, CapturesSteadyStatePlayback) {
  TraceRun run(10, 1.0);
  const obs::TimeSeries& series = run.series();
  ASSERT_GT(series.size(), 0u);
  // Every terminal playing glitch-free at the end, on all four disks.
  EXPECT_EQ(Column(series, "terminals.playing").back(), 10.0);
  EXPECT_EQ(Column(series, "terminals.priming").back(), 0.0);
  EXPECT_EQ(Column(series, "terminals.glitches_total").back(), 0.0);
  EXPECT_EQ(Column(series, "disks.total").back(), 4.0);
  EXPECT_GT(Column(series, "pool.pages_in_use").back(), 0.0);
}

TEST(TraceTest, NetworkBytesDeltaIsPerInterval) {
  TraceRun run(10, 1.0);
  const obs::TimeSeries& series = run.series();
  // Steady state: ~10 terminals x 0.5 MB/s per one-second bucket.
  const std::vector<double> bytes = Column(series, "network.bytes_delta");
  ASSERT_GT(bytes.size(), 20u);
  double sum = 0.0;
  for (std::size_t i = 20; i < bytes.size(); ++i) sum += bytes[i];
  EXPECT_NEAR(sum / static_cast<double>(bytes.size() - 20),
              10 * 512.0 * 1024.0, 10 * 512.0 * 1024.0 * 0.3);
}

TEST(TraceTest, TotalAndDeltaColumnsAreConsistent) {
  TraceRun run(140, 1.0);
  const obs::TimeSeries& series = run.series();
  ASSERT_GT(series.size(), 0u);
  // *_total is non-decreasing within a stats window and *_delta is the
  // difference between consecutive totals, for both counters. Around
  // the reset at the end of warmup (t=15) a total may drop below the
  // previous one; the delta re-bases to the new total, never wraps.
  for (const char* counter : {"terminals.glitches", "network.bytes"}) {
    const std::vector<double> total =
        Column(series, std::string(counter) + "_total");
    const std::vector<double> delta =
        Column(series, std::string(counter) + "_delta");
    double prev = 0.0;
    for (std::size_t row = 0; row < series.size(); ++row) {
      if (series.time(row) > 16.0) {
        EXPECT_GE(total[row], prev) << counter;
        EXPECT_EQ(delta[row], total[row] - prev) << counter;
      } else {
        EXPECT_LE(delta[row], total[row]) << counter;
      }
      prev = total[row];
    }
  }
}

TEST(TraceTest, GlitchesAppearInOverloadTrace) {
  TraceRun run(140, 1.0);
  const obs::TimeSeries& series = run.series();
  const std::vector<double> glitches =
      Column(series, "terminals.glitches_total");
  ASSERT_FALSE(glitches.empty());
  EXPECT_GT(glitches.back(), 0.0);
  // Glitch totals are cumulative within the measurement phase (they
  // reset once when the warmup window closes at t=15).
  double prev = 0.0;
  for (std::size_t row = 0; row < series.size(); ++row) {
    if (series.time(row) <= 16.0) continue;
    EXPECT_GE(glitches[row], prev);
    prev = glitches[row];
  }
}

TEST(TraceTest, CsvHasHeaderAndRows) {
  TraceRun run(5, 5.0);
  const obs::TimeSeries& series = run.series();
  std::ostringstream out;
  series.WriteCsv(out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("time,disks.busy,", 0), 0u);
  // header + one line per sample
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, series.size() + 1);
}

}  // namespace
}  // namespace spiffi::vod
