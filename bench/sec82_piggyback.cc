// Section 8.2: piggybacking terminals — delaying the start of a popular
// movie (playing commercials) so several subscribers share one stream.
// "Experiments show that a 5 minute delay more than doubles the number of
// terminals that may be supported glitch-free."

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  const bench::Preset preset = bench::ActivePreset();
  bench::Sweep spec;
  spec.title = "piggybacking terminals";
  spec.paper_ref = "Section 8.2";
  spec.corner = {"batching window"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch",
               bench::Token("server_memory_bytes", 512 * hw::kMiB)};
  spec.search.step = preset == bench::Preset::kFull ? 5 : 25;
  for (double window : {0.0, 60.0, 300.0}) {
    // Piggybacked terminals watch from the beginning, so the steady-state
    // position spread comes from staggering the starts over many minutes
    // (not from random initial positions). The warmup covers the spread
    // plus the batching delay. A simultaneous-start workload would let
    // nearly every terminal join one of ~64 groups and wildly overstate
    // the benefit.
    const double start_window = preset == bench::Preset::kSmoke ? 120.0 : 900.0;
    // The search ceiling scales with the batching window: a 5-minute
    // window more than doubles capacity, and a fixed 1200-terminal cap
    // used to silently clip exactly the rows the experiment is about.
    spec.rows.push_back(
        {vod::FmtDouble(window / 60.0, 0) + " min",
         {bench::Token("piggyback_window_sec", window),
          bench::Token("start_window_sec", start_window),
          bench::Token("warmup_seconds", start_window + window + 60.0)},
         {.start_guess = window > 0.0 ? 400 : 200,
          .ceiling = 1200 + static_cast<int>(window / 60.0) * 600}});
  }
  spec.cols = {{"max terminals", {}}};
  spec.format = [](const bench::Cell& cell) {
    return std::to_string(cell.terminals) + (cell.at_ceiling ? " (cap)" : "");
  };
  spec.extra = {"vs. none"};
  spec.extra_cells = [](const bench::Grid& grid, std::size_t r) {
    return bench::Cells{
        bench::Gain(grid[r][0].terminals, grid[0][0].terminals)};
  };
  bench::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
