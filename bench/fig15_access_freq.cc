// Figures 15 and 16: movie access frequencies (§7.5).
//
// Fig 15: maximum glitch-free terminals for uniform and Zipfian (z = 0.5,
// 1.0, 1.5) popularity over the server memory sweep — with ample memory
// the more skewed workloads win because terminals share buffered blocks.
// Fig 16: the percentage of buffer-pool references that find a page
// previously referenced by another terminal, for the same runs.

#include <cstdio>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "movie access frequencies";
  spec.paper_ref = "Figures 15 and 16";
  spec.corner = {"distribution"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch"};
  spec.rows = {{"uniform", {"zipf_z=0"}},
               {"zipf 0.5", {"zipf_z=0.5"}},
               {"zipf 1.0", {"zipf_z=1"}},
               {"zipf 1.5", {"zipf_z=1.5"}}};
  spec.cols = bench::MemoryAxis({128, 512, 2048, 4096});
  const bench::Grid grid = bench::RunSweep(spec);
  std::printf("Fig 15 — max glitch-free terminals:\n");
  bench::PrintSweep(spec, grid);
  std::printf("\nFig 16 — %% of buffer references previously referenced "
              "by another terminal (at capacity):\n");
  spec.format = [](const bench::Cell& cell) {
    return vod::FmtPercent(cell.metrics.shared_reference_ratio());
  };
  bench::PrintSweep(spec, grid);
  return 0;
}
