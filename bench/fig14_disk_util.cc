// Figure 14: average disk utilization, striped vs. non-striped layouts,
// as the offered load (number of terminals) grows (§7.4).
//
// With striping every disk shares the load and utilization climbs toward
// 100%; without striping the disks holding popular videos saturate while
// the others idle, capping average utilization far below 100%.

#include <cstdio>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "average disk utilization vs. load";
  spec.paper_ref = "Figure 14";
  spec.corner = {"layout / access"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch",
               bench::Token("server_memory_bytes", 512 * hw::kMiB)};
  spec.rows = {
      {"striped, zipfian", {"placement=striped", "zipf_z=1"}},
      {"striped, uniform", {"placement=striped", "zipf_z=0"}},
      {"non-striped, zipfian", {"placement=non-striped", "zipf_z=1"}},
      {"non-striped, uniform", {"placement=non-striped", "zipf_z=0"}},
  };
  spec.cols = bench::Axis<int>("terminals", {30, 60, 120, 180, 240}, [](int n) {
    return std::to_string(n) + " terms";
  });
  spec.fixed_count = true;
  spec.format = [](const bench::Cell& cell) {
    return vod::FmtPercent(cell.metrics.avg_disk_utilization, 0) +
           (cell.metrics.glitches > 0 ? "*" : "");
  };
  bench::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\n(* = the run was no longer glitch-free at this load)\n");
  return 0;
}
