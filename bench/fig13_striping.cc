// Figures 13 and 14: striped vs. non-striped video layout (§7.4).
//
// Fig 13 reports the maximum glitch-free terminals for four cases —
// striped/non-striped x Zipfian/uniform access — over the server memory
// sweep. Fig 14 reports the average disk utilization at capacity for the
// same cases, showing that non-striped layouts leave most disks idle.
// Love prefetch page replacement and elevator scheduling throughout.

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::PrintHeader("striped vs. non-striped layout", "Figures 13 and 14");
  vod::Sweep spec;
  spec.corner = {"layout / access"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch"};
  spec.rows = {
      {"striped, zipfian", {"placement=striped", "zipf_z=1"}},
      {"striped, uniform", {"placement=striped", "zipf_z=0"}},
      {"non-striped, zipfian", {"placement=non-striped", "zipf_z=1"}, {40}},
      {"non-striped, uniform", {"placement=non-striped", "zipf_z=0"}, {80}},
  };
  spec.cols = bench::MemoryAxis({128, 512, 2048, 4096});
  // The utilization at the largest memory's capacity.
  spec.extra = {"disk util @ cap"};
  spec.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    return vod::Cells{
        vod::FmtPercent(grid[r].back().metrics.avg_disk_utilization)};
  };
  vod::PrintSweep(spec, bench::RunSweep(spec));
  std::printf(
      "\nFig 14 reading: at capacity the striped layout drives every disk "
      "(util -> ~100%%),\nwhile the non-striped layout overloads the disks "
      "holding popular videos and leaves\nthe rest idle (low average "
      "utilization).\n");
  return 0;
}
