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
#include <cstdlib>
#include <string>
#include <vector>

#include "vod/runner.h"
#include "vod/table.h"

int main(int argc, char** argv) {
  using namespace spiffi;

  int terminals = argc > 1 ? std::atoi(argv[1]) : 200;
  std::int64_t server_mb = argc > 2 ? std::atoll(argv[2]) : 512;

  std::printf("comparing algorithms at %d terminals, %lld MB server "
              "memory\n\n",
              terminals, static_cast<long long>(server_mb));

  struct Variant {
    std::string name;
    server::DiskSchedPolicy sched;
    server::ReplacementPolicy replacement;
    server::PrefetchPolicy prefetch;
  };
  std::vector<Variant> variants = {
      {"fcfs + lru", server::DiskSchedPolicy::kFcfs,
       server::ReplacementPolicy::kGlobalLru,
       server::PrefetchPolicy::kFifo},
      {"elevator + lru", server::DiskSchedPolicy::kElevator,
       server::ReplacementPolicy::kGlobalLru,
       server::PrefetchPolicy::kFifo},
      {"elevator + love", server::DiskSchedPolicy::kElevator,
       server::ReplacementPolicy::kLovePrefetch,
       server::PrefetchPolicy::kFifo},
      {"round-robin + love", server::DiskSchedPolicy::kRoundRobin,
       server::ReplacementPolicy::kLovePrefetch,
       server::PrefetchPolicy::kFifo},
      {"gss(4) + love", server::DiskSchedPolicy::kGss,
       server::ReplacementPolicy::kLovePrefetch,
       server::PrefetchPolicy::kFifo},
      {"real-time + love + delayed", server::DiskSchedPolicy::kRealTime,
       server::ReplacementPolicy::kLovePrefetch,
       server::PrefetchPolicy::kDelayed},
  };

  std::vector<vod::SimConfig> configs;
  for (const Variant& v : variants) {
    vod::SimConfig config;
    config.terminals = terminals;
    config.server_memory_bytes = server_mb * hw::kMiB;
    config.disk_sched = v.sched;
    config.gss_groups = 4;
    config.replacement = v.replacement;
    config.prefetch = v.prefetch;
    std::string error = config.Validate();
    if (!error.empty()) {
      std::fprintf(stderr, "bad configuration: %s\n", error.c_str());
      return 1;
    }
    configs.push_back(config);
  }

  // One batch over the runner's workers: the variants differ in no
  // library input, so they share a single video library build.
  vod::ParallelRunner runner;
  const std::vector<vod::SimMetrics> metrics = runner.RunAll(configs);
  vod::TextTable table({"configuration", "glitches", "resp ms",
                        "disk util", "hit ratio", "wasted prefetch"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const vod::SimMetrics& m = metrics[i];
    table.AddRow({variants[i].name,
                  std::to_string(m.glitches),
                  vod::FmtDouble(m.avg_response_ms, 1),
                  vod::FmtPercent(m.avg_disk_utilization),
                  vod::FmtPercent(m.hit_ratio()),
                  std::to_string(m.wasted_prefetches)});
    std::fprintf(stderr, "  %s done\n", variants[i].name.c_str());
  }
  table.Print();
  std::printf("\nA configuration with zero glitches serves this load; "
              "lower response times mean\nmore headroom before the "
              "capacity wall.\n");
  return 0;
}
