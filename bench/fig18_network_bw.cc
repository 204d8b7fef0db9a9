// Figure 18: peak aggregate network bandwidth required as the system
// scales — about one compressed video bit rate (4 Mbit/s ~ 0.5 MB/s) per
// supported terminal (§7.6).

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "peak aggregate network bandwidth";
  spec.paper_ref = "Figure 18";
  spec.corner = {"disks"};
  spec.base = {"replacement=love-prefetch", "disk_sched=real-time",
               "prefetch=delayed"};
  for (int s : {1, 2, 4}) spec.rows.push_back(bench::ScalePoint(s, 512));
  spec.cols = {{"terminals", {}}};
  spec.extra = {"peak bandwidth", "per terminal"};
  spec.extra_cells = [](const bench::Grid& grid, std::size_t r) {
    const bench::Cell& cell = grid[r][0];
    const double peak = cell.metrics.peak_network_bytes_per_sec;
    const double mbit =
        cell.terminals > 0
            ? peak * 8.0 / (1024.0 * 1024.0) / cell.terminals
            : 0.0;
    return bench::Cells{vod::FmtBytesPerSec(peak),
                        vod::FmtDouble(mbit, 2) + " Mbit/s"};
  };
  bench::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
