// Capacity planning: how many subscribers can a given hardware
// configuration serve glitch-free, and what does the storage cost per
// subscriber look like?
//
//   ./capacity_planning [nodes] [disks_per_node] [server_mb] [sched]
//
// sched: a disk_sched knob name — fcfs, elevator (default), round-robin,
// gss or real-time (which also turns on delayed prefetching).
//
// Runs a capacity search (paper §7.1) for the requested configuration and
// prints the supported terminal count together with utilization and a
// simple 1995-prices cost model (Table 3 style).

#include <cstdio>
#include <string>

#include "vod/sweep.h"
#include "vod/table.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  const std::string nodes = argc > 1 ? argv[1] : "4";
  const std::string disks = argc > 2 ? argv[2] : "4";
  const std::string sched = argc > 4 ? argv[4] : "elevator";

  // One cell; a bad argument is refused, naming its token.
  vod::Sweep spec;
  spec.base = {"num_nodes=" + nodes, "disks_per_node=" + disks,
               vod::SizeToken("server_memory_bytes", argc > 3 ? argv[3] : "512",
                              hw::kMiB),
               "disk_sched=" + sched, "replacement=love-prefetch"};
  if (sched == "real-time") spec.base.push_back("prefetch=delayed");
  spec.rows = {{"capacity", {}}};
  spec.cols = {{"search", {}}};
  const vod::SimConfig config = vod::CellConfig(spec, vod::SimConfig(), 0, 0);
  spec.search.start_guess = 12 * config.total_disks();

  std::printf("capacity planning for: %s\n", config.Describe().c_str());
  std::printf("searching for the maximum glitch-free terminal count...\n\n");
  const vod::Cell result =
      vod::RunSweep(spec, vod::SimConfig(), {.jobs = 0})[0][0];  // all cores
  for (const auto& [terminals, glitches] : result.probes) {
    std::printf("  probe %4d terminals: %llu glitches\n", terminals,
                static_cast<unsigned long long>(glitches));
  }
  std::printf("\n");

  const vod::SimMetrics& m = result.metrics;
  // Simple 1995 cost model: $4000 per 9 GB drive, $40/MB memory.
  double disk_cost = config.total_disks() * 4000.0;
  double memory_cost =
      static_cast<double>(config.server_memory_bytes / hw::kMiB) * 40.0;
  double total = disk_cost + memory_cost;

  vod::TextTable table({"metric", "value"});
  table.AddRow({"max glitch-free terminals", std::to_string(result.terminals)});
  table.AddRow({"avg disk utilization",
                vod::FmtPercent(m.avg_disk_utilization)});
  table.AddRow({"avg cpu utilization",
                vod::FmtPercent(m.avg_cpu_utilization)});
  table.AddRow({"peak network demand",
                vod::FmtBytesPerSec(m.peak_network_bytes_per_sec)});
  table.AddRow({"buffer hit ratio", vod::FmtPercent(m.hit_ratio())});
  table.AddRow({"storage cost (disks + memory)",
                "$" + vod::FmtDouble(total, 0)});
  if (result.terminals > 0) {
    table.AddRow({"storage cost per terminal",
                  "$" + vod::FmtDouble(total / result.terminals, 0)});
  }
  table.Print();
  return 0;
}
