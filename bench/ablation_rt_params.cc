// Ablation: real-time scheduler parameters. §7.2: "We explored a wide
// variety of settings for these parameters [number of priority classes,
// priority spacing] and found that regardless of how they were set there
// was little variation in the performance of the system."

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::PrintHeader("real-time priority classes x spacing",
                     "ablation (§7.2 claim)");
  vod::Sweep spec;
  spec.corner = {"classes \\ spacing"};
  spec.base = {"disk_sched=real-time", "prefetch=real-time"};
  spec.rows = vod::Axis<int>("realtime_classes", {1, 2, 3, 5},
                             [](int c) { return std::to_string(c); });
  spec.cols = vod::Axis<double>(
      "realtime_spacing_sec", {1.0, 2.0, 4.0, 8.0},
      [](double s) { return vod::FmtDouble(s, 0) + " s"; });
  spec.search.start_guess = 220;
  vod::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\nAs the paper observed, the setting barely matters: one "
              "class degenerates to the\nelevator and more classes only "
              "refine the urgency ordering slightly.\n");
  return 0;
}
