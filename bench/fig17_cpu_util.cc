// Figure 17: CPU utilization as the system is scaled from 16 to 64 disks
// (4 CPUs throughout) — even at 16 disks per node the CPUs are nowhere
// near saturation (§7.6).

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::PrintHeader("CPU utilization during scaleup", "Figure 17");
  vod::Sweep spec;
  spec.corner = {"disks"};
  spec.base = {"replacement=love-prefetch", "disk_sched=real-time",
               "prefetch=delayed"};
  for (int s : {1, 2, 4}) spec.rows.push_back(bench::ScalePoint(s, 512));
  spec.cols = {{"terminals", {}}};
  spec.extra = {"avg cpu utilization"};
  spec.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    return vod::Cells{
        vod::FmtPercent(grid[r][0].metrics.avg_cpu_utilization)};
  };
  vod::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\nCPU is never the bottleneck: the video server remains "
              "I/O bound at every scale.\n");
  return 0;
}
