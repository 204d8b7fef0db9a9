// Table 2: scaleup — maximum glitch-free terminals as the system grows
// from 16 to 32 to 64 disks with videos and server memory scaled
// proportionally (4 CPUs throughout), for the paper's four base
// configurations (§7.6). Scaleup efficiency relative to the 16-disk base
// is shown in parentheses, as in the paper.
//
// Figures 17 and 18 derive from the same runs; this harness also prints
// the CPU utilization and peak network bandwidth at capacity.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  const std::vector<std::string> elevator = {"disk_sched=elevator",
                                             "prefetch=fifo"};
  const std::vector<std::string> realtime = {
      "disk_sched=real-time", "realtime_classes=3", "realtime_spacing_sec=4",
      "prefetch=delayed", "max_advance_prefetch_sec=8"};
  struct Base {
    std::string sched;
    double terminal_mb;
    std::int64_t server_mb;  // at 16 disks; scales with disks
    const std::vector<std::string>& tokens;
  };
  const std::vector<Base> bases = {{"elevator", 2.0, 128, elevator},
                                   {"elevator", 2.5, 128, elevator},
                                   {"elevator", 2.0, 512, elevator},
                                   {"real-time", 2.0, 512, realtime}};
  const std::vector<int> scale = {1, 2, 4};  // 16, 32, 64 disks

  bench::PrintHeader("scaleup to 32 and 64 disks", "Table 2");
  vod::Sweep spec;
  spec.corner = {"sched", "term MB", "disks", "server MB"};
  spec.base = {"replacement=love-prefetch"};
  for (const Base& base : bases) {
    for (int s : scale) {
      vod::SweepPoint point = bench::ScalePoint(s, base.server_mb);
      point.label = base.sched;
      point.more_labels = {vod::FmtDouble(base.terminal_mb, 1),
                           std::to_string(16 * s),
                           std::to_string(base.server_mb * s)};
      point.tokens.push_back(vod::Token(
          "terminal_memory_bytes",
          static_cast<std::int64_t>(base.terminal_mb * hw::kMiB)));
      point.tokens.insert(point.tokens.end(), base.tokens.begin(),
                          base.tokens.end());
      spec.rows.push_back(point);
    }
  }
  spec.cols = {{"max terms", {}}};
  spec.extra = {"scaleup", "cpu util", "peak net"};
  spec.extra_cells = [&scale](const vod::Grid& grid, std::size_t r) {
    const vod::Cell& cell = grid[r][0];
    // Efficiency relative to the same base at 16 disks.
    const int s = scale[r % scale.size()];
    const int base_capacity = grid[r - r % scale.size()][0].terminals;
    char scaleup[32] = "base";
    if (s != 1) {
      std::snprintf(scaleup, sizeof(scaleup), "(%.2f)",
                    base_capacity > 0
                        ? static_cast<double>(cell.terminals) /
                              (static_cast<double>(base_capacity) * s)
                        : 0.0);
    }
    return vod::Cells{
        scaleup, vod::FmtPercent(cell.metrics.avg_cpu_utilization),
        vod::FmtBytesPerSec(cell.metrics.peak_network_bytes_per_sec)};
  };
  vod::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
