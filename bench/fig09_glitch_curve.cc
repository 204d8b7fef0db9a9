// Figure 9: finding the maximum number of terminals without glitches —
// the glitch count as the terminal count is swept through the capacity
// of one configuration (16 disks, 512 KB stripe, elevator scheduling).

#include <cstdio>
#include <vector>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  // Locate the capacity first so the sweep brackets it like the paper's
  // example does.
  bench::Sweep spec;
  spec.title = "glitches vs. number of terminals";
  spec.paper_ref = "Figure 9";
  spec.rows = {{"base config", {}}};
  spec.cols = {{"max terminals", {}}};
  const bench::Cell capacity = bench::RunSweep(spec)[0][0];
  std::printf("config: %s\n\n", capacity.config.Describe().c_str());
  const int c = capacity.terminals;

  std::vector<int> counts;
  for (int delta : {-40, -20, -10, 0, 10, 20, 40, 60}) {
    if (c + delta > 0) counts.push_back(c + delta);
  }
  auto curve = vod::GlitchCurve(capacity.config, counts, /*replications=*/1,
                                bench::JobsSetting());
  for (int terminals : counts) {
    bench::NoteRealizedRuns(capacity.config, terminals, 1);
  }

  vod::TextTable table({"terminals", "glitches"});
  for (const auto& [terminals, glitches] : curve) {
    table.AddRow({std::to_string(terminals), std::to_string(glitches)});
  }
  table.Print();
  std::printf("\nmax terminals without glitches: %d\n", c);
  return 0;
}
