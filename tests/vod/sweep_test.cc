// The sweep driver (vod/sweep.h): how a cell's config is assembled,
// that each measure matches the direct call, and that a bad spec is
// refused before anything runs.

#include "vod/sweep.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "vod/metrics_testing.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

// Two disks and second-long windows: every run takes milliseconds.
std::vector<std::string> TinySystem() {
  return {"num_nodes=1",         "disks_per_node=2",
          "server_memory_bytes=67108864", "start_window_sec=2",
          "warmup_seconds=3",    "measure_seconds=3"};
}

// The sweep from a default config and default search options.
Grid RunDefault(const Sweep& spec) {
  return RunSweep(spec, SimConfig(), CapacitySearchOptions());
}

TEST(SweepTest, FixedCountCellsApplyBaseThenRowThenColumnTokens) {
  Sweep spec;
  spec.base = TinySystem();
  spec.base.push_back("terminals=8");
  spec.rows = {{"elevator", {"disk_sched=elevator", "zipf_z=0.5"}},
               {"real-time", {"disk_sched=real-time", "zipf_z=0.5"}}};
  spec.cols = {{"z=0.5", {}}, {"uniform", {"zipf_z=0"}}};
  spec.fixed_count = true;
  const Grid grid = RunDefault(spec);
  ASSERT_EQ(grid.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_EQ(grid[r].size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
      const Cell& cell = grid[r][c];
      EXPECT_EQ(cell.config.disks_per_node, 2);
      EXPECT_EQ(cell.config.disk_sched,
                r == 0 ? server::DiskSchedPolicy::kElevator
                       : server::DiskSchedPolicy::kRealTime);
      EXPECT_EQ(cell.config.zipf_z, c == 0 ? 0.5 : 0.0);  // column wins
      EXPECT_EQ(cell.terminals, 8);
      EXPECT_FALSE(cell.at_ceiling);
      ASSERT_EQ(cell.probes.size(), 1u);  // the one run, as its point
      EXPECT_EQ(cell.probes[0].first, 8);
      ExpectBitIdentical(cell.metrics, RunSimulation(cell.config));
    }
  }
}

TEST(SweepTest, CapacityCellsMatchFindMaxTerminalsWithTheirOverrides) {
  Sweep spec;
  spec.base = TinySystem();
  spec.search = {.step = 4, .ceiling = 120};
  spec.rows = {{"row", {}, {.start_guess = 12}}};
  spec.cols = {{"column", {}, {.step = 8}}};
  CapacitySearchOptions defaults;
  defaults.min_terminals = 2;
  defaults.replications = 2;
  const Cell cell = RunSweep(spec, SimConfig(), defaults)[0][0];

  CapacitySearchOptions options = defaults;
  options.start_guess = 12;
  options.step = 8;
  options.max_terminals = 120;
  const CapacityResult expected = FindMaxTerminals(cell.config, options);
  EXPECT_GT(expected.max_terminals, 0);
  EXPECT_EQ(cell.terminals, expected.max_terminals);
  EXPECT_EQ(cell.at_ceiling, expected.max_terminals >= 120 - 8);
  EXPECT_EQ(cell.probes, expected.probes);
  EXPECT_EQ(cell.replications, 2);
  ExpectBitIdentical(cell.metrics, expected.at_capacity);
}

// The anchored patterns also show that nothing ran first: each finished
// cell prints a "  <row> @ <column> -> ..." line to stderr.
Sweep SpecWithSecondRow(std::vector<std::string> tokens) {
  Sweep spec;
  spec.base = TinySystem();
  spec.rows = {{"first", {}}, {"second", std::move(tokens)}};
  spec.cols = {{"only", {}}};
  return spec;
}

TEST(SweepDeathTest, RefusesAnUnknownKnobNamingCellAndToken) {
  EXPECT_EXIT(RunDefault(SpecWithSecondRow({"bogus_knob=1"})),
              testing::ExitedWithCode(1),
              "^cell second @ only: token 'bogus_knob=1': unknown config "
              "knob 'bogus_knob'\n$");
}

TEST(SweepDeathTest, RefusesATokenWithoutAValue) {
  EXPECT_EXIT(RunDefault(SpecWithSecondRow({"terminals"})),
              testing::ExitedWithCode(1),
              "^cell second @ only: token 'terminals': expected "
              "key=value\n$");
}

TEST(SweepDeathTest, RefusesAConfigValidateRejects) {
  EXPECT_EXIT(RunDefault(SpecWithSecondRow({"terminal_memory_bytes=1"})),
              testing::ExitedWithCode(1),
              "^cell second @ only: terminal memory must hold at least one "
              "stripe block\n$");
}

}  // namespace
}  // namespace spiffi::vod
