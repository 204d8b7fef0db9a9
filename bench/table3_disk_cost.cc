// Table 3: disk cost per supported terminal for three ways of holding the
// same 64-video library — 16 x 9 GB, 32 x 4.5 GB, or 64 x 2.2 GB drives
// (§7.6, 1995 prices). Minimizing $/MB does not minimize $/terminal:
// more spindles means more concurrent streams.

#include <vector>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  struct Option {
    int disks;             // total drives
    double capacity_gb;    // per drive
    int cost_per_disk;     // 1995 US$
  };
  const std::vector<Option> options = {
      {16, 9.0, 4000}, {32, 4.5, 2500}, {64, 2.2, 1500}};

  bench::Sweep spec;
  spec.title = "disk cost per terminal";
  spec.paper_ref = "Table 3";
  spec.corner = {"disks", "capacity", "cost/disk", "cost/MB", "total cost"};
  spec.base = {"replacement=love-prefetch", "disk_sched=real-time",
               "prefetch=delayed"};
  for (const Option& option : options) {
    bench::SweepPoint point = bench::ScalePoint(option.disks / 16, 512);
    point.more_labels = {
        vod::FmtDouble(option.capacity_gb, 1) + " GB",
        "$" + std::to_string(option.cost_per_disk),
        "$" + vod::FmtDouble(option.cost_per_disk /
                                 (option.capacity_gb * 1024.0),
                             2),
        "$" + std::to_string(option.disks * option.cost_per_disk)};
    // The library stays 64 videos in every case.
    point.tokens.push_back(
        bench::Token("videos_per_disk", 64 / option.disks));
    point.tokens.push_back(bench::Token(
        "disk.capacity_bytes",
        static_cast<std::int64_t>(option.capacity_gb *
                                  static_cast<double>(hw::kGiB))));
    spec.rows.push_back(point);
  }
  spec.cols = {{"terminals", {}}};
  spec.extra = {"cost/terminal"};
  spec.extra_cells = [&options](const bench::Grid& grid, std::size_t r) {
    const int terminals = grid[r][0].terminals;
    const int total_cost = options[r].disks * options[r].cost_per_disk;
    return bench::Cells{
        "$" + vod::FmtDouble(
                  terminals > 0 ? static_cast<double>(total_cost) / terminals
                                : 0.0,
                  0)};
  };
  bench::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
