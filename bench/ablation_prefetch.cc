// Ablation: prefetching aggressiveness (§5.2.3). The number of prefetch
// worker processes per disk bounds how many prefetch reads can be
// outstanding. The paper's claim: non-real-time scheduling is *hurt* by
// aggressive prefetching (it cannot tell urgent from background work),
// while real-time scheduling benefits from it.

#include <cstdio>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "prefetch aggressiveness (workers per disk)";
  spec.paper_ref = "ablation (§5.2.3 claim)";
  spec.corner = {"scheduler"};
  spec.base = {bench::Token("server_memory_bytes", 512 * hw::kMiB),
               "replacement=love-prefetch"};
  spec.rows = {
      {"elevator (on-reference trigger)",
       {"disk_sched=elevator", "prefetch=fifo",
        "prefetch_trigger=on-reference"}},
      {"real-time (on-reference trigger)",
       {"disk_sched=real-time", "prefetch=real-time",
        "prefetch_trigger=on-reference"}},
  };
  // The baseline without prefetching keeps the default trigger.
  spec.cols = {{"no prefetch", {"prefetch=none", "prefetch_trigger=auto"}}};
  for (const bench::SweepPoint& workers : bench::Axis<int>(
           "prefetch_workers", {1, 4, 16, 64},
           [](int w) { return std::to_string(w); })) {
    spec.cols.push_back(workers);
  }
  bench::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\nElevator cannot distinguish a prefetch from an urgent "
              "demand read, so aggressive\nprefetching clogs its queue; "
              "the real-time scheduler parks prefetches in the\nlowest "
              "priority class and converts aggressiveness into hits.\n");
  return 0;
}
