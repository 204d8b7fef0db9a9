// Figure 11: reducing server memory requirements under elevator disk
// scheduling — global LRU vs. love prefetch page replacement as the
// aggregate server memory shrinks from 4 GB to 128 MB (§7.3).

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "server memory vs. page replacement (elevator)";
  spec.paper_ref = "Figure 11";
  spec.corner = {"server memory"};
  spec.base = {"disk_sched=elevator"};
  spec.rows = bench::MemoryAxis({128, 256, 512, 1024, 2048, 4096});
  spec.cols = {{"global LRU", {"replacement=global-lru"}},
               {"love prefetch", {"replacement=love-prefetch"}}};
  bench::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
