// Figure 16: percentage of buffer-pool references that request a page
// previously referenced by another terminal, vs. server memory, for the
// four popularity distributions (§7.5) at a fixed load.
//
// (fig15_access_freq also prints this at each configuration's capacity;
// this harness holds the terminal count fixed so the curves isolate the
// memory effect exactly as the paper's figure does.)

#include <cstdio>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  constexpr int kTerminals = 180;  // near capacity, fixed across cells
  bench::Sweep spec;
  spec.title = "inter-terminal sharing of buffered pages";
  spec.paper_ref = "Figure 16";
  spec.corner = {"distribution"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch",
               bench::Token("terminals", kTerminals)};
  spec.rows = {{"uniform", {"zipf_z=0"}},
               {"zipf 0.5", {"zipf_z=0.5"}},
               {"zipf 1.0", {"zipf_z=1"}},
               {"zipf 1.5", {"zipf_z=1.5"}}};
  spec.cols = bench::MemoryAxis({128, 256, 512, 1024, 2048, 4096});
  spec.fixed_count = true;
  spec.format = [](const bench::Cell& cell) {
    return vod::FmtPercent(cell.metrics.shared_reference_ratio());
  };
  bench::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\n(%d terminals in every cell)\n", kTerminals);
  return 0;
}
