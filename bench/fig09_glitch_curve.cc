// Figure 9: finding the maximum number of terminals without glitches —
// the glitch count as the terminal count is swept through the capacity
// of one configuration (16 disks, 512 KB stripe, elevator scheduling).

#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  // Locate the capacity first so the curve brackets it like the paper's
  // example does.
  bench::PrintHeader("glitches vs. number of terminals", "Figure 9");
  vod::Sweep spec;
  spec.rows = {{"base config", {}}};
  spec.cols = {{"max terminals", {}}};
  const vod::Cell capacity = bench::RunSweep(spec)[0][0];
  std::printf("config: %s\n\n", capacity.config.Describe().c_str());
  const int c = capacity.terminals;

  // The curve is one run per terminal count. A count the search already
  // probed with the curve's single replication reuses that probe; the
  // others are the columns of a fixed-count sweep of the same config.
  std::map<int, std::uint64_t> glitches;
  if (capacity.replications == 1) {
    glitches.insert(capacity.probes.begin(), capacity.probes.end());
  }
  vod::Sweep curve = spec;
  curve.fixed_count = true;
  curve.cols.clear();
  std::vector<int> counts;
  for (int delta : {-40, -20, -10, 0, 10, 20, 40, 60}) {
    const int terminals = c + delta;
    if (terminals <= 0) continue;
    counts.push_back(terminals);
    if (glitches.count(terminals) == 0) {
      curve.cols.push_back({std::to_string(terminals),
                            {vod::Token("terminals", terminals)}});
    }
  }
  const vod::Grid ran = bench::RunSweep(curve);
  for (const vod::Cell& cell : ran[0]) {
    glitches[cell.terminals] = cell.metrics.glitches;
  }

  vod::TextTable table({"terminals", "glitches"});
  for (int terminals : counts) {
    table.AddRow({std::to_string(terminals),
                  std::to_string(glitches.at(terminals))});
  }
  table.Print();
  std::printf("\nmax terminals without glitches: %d\n", c);
  return 0;
}
