#include "vod/trace.h"

#include <sstream>
#include <vector>

#include "gtest/gtest.h"

namespace spiffi::vod {
namespace {

SimConfig TraceConfig(int terminals) {
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

TEST(TraceTest, SamplesAtRequestedInterval) {
  Simulation sim(TraceConfig(10));
  TraceRecorder trace(&sim, 1.0);
  sim.Run();
  // 45 simulated seconds at 1 s intervals.
  const std::vector<TraceSample> samples = trace.samples();
  ASSERT_GE(samples.size(), 44u);
  ASSERT_LE(samples.size(), 46u);
  EXPECT_NEAR(samples[0].time, 1.0, 1e-9);
  EXPECT_NEAR(samples[1].time - samples[0].time, 1.0, 1e-9);
}

TEST(TraceTest, CapturesSteadyStatePlayback) {
  Simulation sim(TraceConfig(10));
  TraceRecorder trace(&sim, 1.0);
  sim.Run();
  const TraceSample late = trace.samples().back();
  EXPECT_EQ(late.terminals_playing, 10);
  EXPECT_EQ(late.terminals_priming, 0);
  EXPECT_EQ(late.glitches_total, 0u);
  EXPECT_EQ(late.total_disks, 4);
  EXPECT_GT(late.pool_pages_in_use, 0);
}

TEST(TraceTest, NetworkBytesDeltaIsPerInterval) {
  Simulation sim(TraceConfig(10));
  TraceRecorder trace(&sim, 1.0);
  sim.Run();
  // Steady state: ~10 terminals x 0.5 MB/s per one-second bucket.
  const auto& samples = trace.samples();
  double sum = 0.0;
  int counted = 0;
  for (std::size_t i = 20; i < samples.size(); ++i) {
    sum += static_cast<double>(samples[i].network_bytes_delta);
    ++counted;
  }
  double avg = sum / counted;
  EXPECT_NEAR(avg, 10 * 512.0 * 1024.0, 10 * 512.0 * 1024.0 * 0.3);
}

TEST(TraceTest, TotalAndDeltaColumnsAreConsistent) {
  Simulation sim(TraceConfig(140));
  TraceRecorder trace(&sim, 1.0);
  sim.Run();
  const auto& samples = trace.samples();
  ASSERT_FALSE(samples.empty());
  // *_total is non-decreasing within a stats window and *_delta is the
  // difference between consecutive totals — for both counters, including
  // across the reset at the end of warmup (t=15), where the delta
  // re-bases instead of wrapping.
  std::uint64_t prev_glitches = 0;
  std::uint64_t prev_bytes = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TraceSample& s = samples[i];
    if (s.time > 16.0) {
      EXPECT_GE(s.glitches_total, prev_glitches);
      EXPECT_EQ(s.glitches_delta, s.glitches_total - prev_glitches);
      EXPECT_GE(s.network_bytes_total, prev_bytes);
      EXPECT_EQ(s.network_bytes_delta, s.network_bytes_total - prev_bytes);
    } else {
      // Around the reset the total may drop below the previous total;
      // the delta must re-base to the new total, never wrap.
      EXPECT_LE(s.glitches_delta, s.glitches_total);
      EXPECT_LE(s.network_bytes_delta, s.network_bytes_total);
    }
    prev_glitches = s.glitches_total;
    prev_bytes = s.network_bytes_total;
  }
}

TEST(TraceTest, GlitchesAppearInOverloadTrace) {
  Simulation sim(TraceConfig(140));
  TraceRecorder trace(&sim, 1.0);
  sim.Run();
  const std::vector<TraceSample> samples = trace.samples();
  EXPECT_GT(samples.back().glitches_total, 0u);
  // Glitch totals are cumulative within the measurement phase (they
  // reset once when the warmup window closes at t=15).
  std::uint64_t prev = 0;
  for (const TraceSample& s : samples) {
    if (s.time <= 16.0) continue;
    EXPECT_GE(s.glitches_total, prev);
    prev = s.glitches_total;
  }
}

TEST(TraceTest, CsvHasHeaderAndRows) {
  Simulation sim(TraceConfig(5));
  TraceRecorder trace(&sim, 5.0);
  sim.Run();
  std::ostringstream out;
  trace.WriteCsv(out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("time,disks_busy"), std::string::npos);
  // header + one line per sample
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, trace.samples().size() + 1);
}

}  // namespace
}  // namespace spiffi::vod
