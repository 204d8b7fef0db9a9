// Algorithm comparison: run the same workload under every disk
// scheduling policy and both page-replacement policies, at a fixed
// terminal count, and compare what the subscriber experiences.
//
//   ./algorithm_comparison [terminals] [server_mb]
//
// Unlike the paper-figure harnesses (which search for each algorithm's
// capacity), this example holds the load constant so the per-request
// metrics are directly comparable — useful for picking algorithms for a
// known subscriber base.

#include <cstdio>
#include <string>

#include "vod/sweep.h"
#include "vod/table.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  const std::string terminals = argc > 1 ? argv[1] : "200";
  const std::string server_mb = argc > 2 ? argv[2] : "512";
  std::printf("comparing algorithms at %s terminals, %s MB server "
              "memory\n\n",
              terminals.c_str(), server_mb.c_str());

  // One fixed-count run per variant; they differ in no library input, so
  // they share a single video library build.
  vod::Sweep spec;
  spec.corner = {"configuration"};
  spec.base = {"terminals=" + terminals,
               vod::SizeToken("server_memory_bytes", server_mb, hw::kMiB),
               "gss_groups=4"};
  spec.rows = {
      {"fcfs + lru", {"disk_sched=fcfs", "replacement=global-lru"}},
      {"elevator + lru", {"disk_sched=elevator", "replacement=global-lru"}},
      {"elevator + love", {"disk_sched=elevator", "replacement=love-prefetch"}},
      {"round-robin + love",
       {"disk_sched=round-robin", "replacement=love-prefetch"}},
      {"gss(4) + love", {"disk_sched=gss", "replacement=love-prefetch"}},
      {"real-time + love + delayed",
       {"disk_sched=real-time", "replacement=love-prefetch",
        "prefetch=delayed"}},
  };
  spec.cols = {{"glitches", {}}};
  spec.fixed_count = true;
  spec.format = [](const vod::Cell& cell) {
    return std::to_string(cell.metrics.glitches);
  };
  spec.extra = {"resp ms", "disk util", "hit ratio", "wasted prefetch"};
  spec.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    const vod::SimMetrics& m = grid[r][0].metrics;
    return vod::Cells{vod::FmtDouble(m.avg_response_ms, 1),
                      vod::FmtPercent(m.avg_disk_utilization),
                      vod::FmtPercent(m.hit_ratio()),
                      std::to_string(m.wasted_prefetches)};
  };
  // {.jobs = 0}: all cores.
  vod::PrintSweep(spec, vod::RunSweep(spec, vod::SimConfig(), {.jobs = 0}));
  std::printf("\nA configuration with zero glitches serves this load; "
              "lower response times mean\nmore headroom before the "
              "capacity wall.\n");
  return 0;
}
