// Figure 12: reducing server memory requirements under real-time disk
// scheduling (3 classes, 4 s spacing) with aggressive real-time
// prefetching — global LRU vs. love prefetch vs. love prefetch plus
// delayed prefetching with 8 s and 4 s maximum advance (§7.3).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::PrintHeader("server memory vs. replacement+prefetch (real-time)",
                     "Figure 12");
  vod::Sweep spec;
  spec.corner = {"server memory"};
  spec.base = {"disk_sched=real-time", "realtime_classes=3",
               "realtime_spacing_sec=4", "max_advance_prefetch_sec=8"};
  spec.rows = bench::MemoryAxis({128, 256, 512, 1024, 2048, 4096});
  spec.cols = {
      {"global LRU", {"replacement=global-lru", "prefetch=real-time"}},
      {"love prefetch", {"replacement=love-prefetch", "prefetch=real-time"}},
      {"love + delayed (8 s)",
       {"replacement=love-prefetch", "prefetch=delayed"}},
      {"love + delayed (4 s)",
       {"replacement=love-prefetch", "prefetch=delayed",
        "max_advance_prefetch_sec=4"}},
  };
  vod::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
