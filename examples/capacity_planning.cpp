// Capacity planning: how many subscribers can a given hardware
// configuration serve glitch-free, and what does the storage cost per
// subscriber look like?
//
//   ./capacity_planning [nodes] [disks_per_node] [server_mb] [sched]
//
// sched: elevator (default) | realtime | gss | rr
//
// Runs a capacity search (paper §7.1) for the requested configuration and
// prints the supported terminal count together with utilization and a
// simple 1995-prices cost model (Table 3 style).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "vod/capacity.h"
#include "vod/simulation.h"
#include "vod/table.h"

namespace {

spiffi::server::DiskSchedPolicy ParseSched(const char* name) {
  using spiffi::server::DiskSchedPolicy;
  if (std::strcmp(name, "realtime") == 0) return DiskSchedPolicy::kRealTime;
  if (std::strcmp(name, "gss") == 0) return DiskSchedPolicy::kGss;
  if (std::strcmp(name, "rr") == 0) return DiskSchedPolicy::kRoundRobin;
  return DiskSchedPolicy::kElevator;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spiffi;

  vod::SimConfig config;
  config.num_nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  config.disks_per_node = argc > 2 ? std::atoi(argv[2]) : 4;
  config.server_memory_bytes =
      (argc > 3 ? std::atoll(argv[3]) : 512) * hw::kMiB;
  config.disk_sched = ParseSched(argc > 4 ? argv[4] : "elevator");
  config.replacement = server::ReplacementPolicy::kLovePrefetch;
  if (config.disk_sched == server::DiskSchedPolicy::kRealTime) {
    config.prefetch = server::PrefetchPolicy::kDelayed;
  }

  std::string error = config.Validate();
  if (!error.empty()) {
    std::fprintf(stderr, "bad configuration: %s\n", error.c_str());
    return 1;
  }

  std::printf("capacity planning for: %s\n", config.Describe().c_str());
  std::printf("searching for the maximum glitch-free terminal count...\n\n");

  vod::CapacitySearchOptions options;
  options.start_guess = 12 * config.total_disks();
  options.step = 5;
  vod::CapacityResult result = vod::FindMaxTerminals(config, options);
  for (const auto& [terminals, glitches] : result.probes) {
    std::printf("  probe %4d terminals: %llu glitches\n", terminals,
                static_cast<unsigned long long>(glitches));
  }
  std::printf("\n");

  const vod::SimMetrics& m = result.at_capacity;
  // Simple 1995 cost model: $4000 per 9 GB drive, $40/MB memory.
  double disk_cost = config.total_disks() * 4000.0;
  double memory_cost =
      static_cast<double>(config.server_memory_bytes / hw::kMiB) * 40.0;
  double total = disk_cost + memory_cost;

  vod::TextTable table({"metric", "value"});
  table.AddRow({"max glitch-free terminals",
                std::to_string(result.max_terminals)});
  table.AddRow({"avg disk utilization",
                vod::FmtPercent(m.avg_disk_utilization)});
  table.AddRow({"avg cpu utilization",
                vod::FmtPercent(m.avg_cpu_utilization)});
  table.AddRow({"peak network demand",
                vod::FmtBytesPerSec(m.peak_network_bytes_per_sec)});
  table.AddRow({"buffer hit ratio", vod::FmtPercent(m.hit_ratio())});
  table.AddRow({"storage cost (disks + memory)",
                "$" + vod::FmtDouble(total, 0)});
  if (result.max_terminals > 0) {
    table.AddRow({"storage cost per terminal",
                  "$" + vod::FmtDouble(total / result.max_terminals, 0)});
  }
  table.Print();
  return 0;
}
