// MetricsRegistry unit tests: registration, duplicate-name rejection,
// kind checks on reads, and export shape. The last test drives a real
// Simulation to check that the probes follow ResetAllStats().

#include "obs/metrics_registry.h"

#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "vod/simulation.h"

namespace spiffi::obs {
namespace {

TEST(MetricsRegistryTest, ProbesReadLiveState) {
  MetricsRegistry registry;
  std::uint64_t backing = 0;
  registry.AddProbe("disk.reads",
                    [&backing] { return static_cast<double>(backing); });
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Has("disk.reads"));
  EXPECT_FALSE(registry.Has("pool.misses"));
  EXPECT_DOUBLE_EQ(registry.Value("disk.reads"), 0.0);
  backing = 42;  // probes poll at read time, no re-registration needed
  EXPECT_DOUBLE_EQ(registry.Value("disk.reads"), 42.0);

  QuantileSketch component;
  component.Add(1.0);
  registry.AddSketchProbe("terminal.slack_sec_sketch",
                          [&component](QuantileSketch& accumulator) {
                            accumulator.Merge(component);
                          });
  EXPECT_EQ(registry.GetSketch("terminal.slack_sec_sketch").count(), 1u);
  component.Add(2.0);
  EXPECT_EQ(registry.GetSketch("terminal.slack_sec_sketch").count(), 2u);
}

TEST(MetricsRegistryDeathTest, DuplicateNameChecks) {
  MetricsRegistry registry;
  registry.AddProbe("pool.hits", [] { return 0.0; });
  EXPECT_DEATH(registry.AddProbe("pool.hits", [] { return 1.0; }),
               "CHECK failed");
  // The clash is on the name, not the kind.
  EXPECT_DEATH(
      registry.AddSketchProbe("pool.hits", [](QuantileSketch&) {}),
      "CHECK failed");
}

TEST(MetricsRegistryDeathTest, ReadsCheckKindAndExistence) {
  MetricsRegistry registry;
  registry.AddProbe("disk.reads", [] { return 0.0; });
  registry.AddSketchProbe("disk.service_sec_sketch",
                          [](QuantileSketch&) {});
  EXPECT_DEATH(registry.Value("no.such.metric"), "CHECK failed");
  EXPECT_DEATH(registry.Value("disk.service_sec_sketch"), "CHECK failed");
  EXPECT_DEATH(registry.GetSketch("no.such.metric"), "CHECK failed");
  EXPECT_DEATH(registry.GetSketch("disk.reads"), "CHECK failed");
}

TEST(MetricsRegistryTest, ExportsJsonAndCsv) {
  MetricsRegistry registry;
  registry.AddProbe("pool.hits", [] { return 12.0; });
  registry.AddProbe("disk.reads", [] { return 99.0; });
  registry.AddSketchProbe("disk.service_sec_sketch", [](QuantileSketch& s) {
    s.Add(4.0);
    s.Add(6.0);
  });

  std::ostringstream json;
  registry.WriteJson(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"pool.hits\":12"), std::string::npos);
  EXPECT_NE(j.find("\"disk.reads\":99"), std::string::npos);
  EXPECT_NE(j.find("\"disk.service_sec_sketch\":{\"count\":2"),
            std::string::npos);

  std::ostringstream csv;
  registry.WriteCsv(csv);
  const std::string c = csv.str();
  EXPECT_NE(c.find("pool.hits,12"), std::string::npos);
  EXPECT_NE(c.find("disk.reads,99"), std::string::npos);
  // Sketches export per-facet scalar rows.
  EXPECT_NE(c.find("disk.service_sec_sketch.count,2"), std::string::npos);
  EXPECT_NE(c.find("disk.service_sec_sketch.p99,"), std::string::npos);
}

// End to end: the probes follow the ResetAllStats() window. After
// warmup they show activity; opening the measurement window zeroes what
// they read.
TEST(MetricsRegistryTest, SimulationResetOpensMeasurementWindow) {
  vod::SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 256LL * 1024 * 1024;
  config.terminals = 20;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;

  vod::Simulation simulation(config);
  const MetricsRegistry& metrics = simulation.metrics();

  simulation.RunWarmup();
  EXPECT_GT(metrics.Value("terminal.blocks_received"), 0.0);
  EXPECT_GT(metrics.Value("disk.reads"), 0.0);
  EXPECT_GT(metrics.GetSketch("terminal.response_sec_sketch").count(), 0u);

  simulation.ResetAllStats();
  EXPECT_DOUBLE_EQ(metrics.Value("terminal.blocks_received"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.Value("disk.reads"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.Value("pool.references"), 0.0);
  EXPECT_EQ(metrics.GetSketch("terminal.response_sec_sketch").count(), 0u);

  simulation.RunMeasurement();
  EXPECT_GT(metrics.Value("terminal.blocks_received"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.Value("sim.measured_seconds"),
                   config.measure_seconds);
}

}  // namespace
}  // namespace spiffi::obs
