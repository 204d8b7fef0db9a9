// Figure 19: the effect of pause/resume (§8.1) — each terminal pauses
// each video on average twice for an average of two minutes; capacity is
// essentially unaffected.

#include <cstdio>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "pause and restart";
  spec.paper_ref = "Figure 19";
  spec.corner = {"server memory"};
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch",
               "pauses_per_video_mean=2", "pause_duration_mean_sec=120"};
  spec.rows = bench::MemoryAxis({128, 512, 2048});
  spec.cols = {{"no pausing", {"pause_enabled=false"}},
               {"with pausing", {"pause_enabled=true"}}};
  bench::PrintSweep(spec, bench::RunSweep(spec));
  std::printf("\nPausing terminals stop consuming while their buffers "
              "refill, so capacity is\nessentially unchanged (slightly "
              "higher if anything, since paused terminals\nplace no "
              "load).\n");
  return 0;
}
