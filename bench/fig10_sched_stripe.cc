// Figure 10: maximum glitch-free terminals for each disk scheduling
// algorithm over stripe sizes 128-1024 KB.
//
// Configuration per §7.2: 16 disks, 4 GB server memory (so memory never
// limits performance), global LRU, 2 MB terminals. Real-time scheduling
// is shown with 2 and 3 priority classes at 4 s spacing and uses
// real-time prefetching; the non-real-time algorithms use the limited
// prefetch setting.

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep spec;
  spec.title = "disk scheduling algorithms x stripe sizes";
  spec.paper_ref = "Figure 10";
  spec.corner = {"algorithm"};
  spec.base = {"gss_groups=1", "realtime_classes=3"};
  spec.rows = {
      {"elevator", {"disk_sched=elevator"}},
      {"gss (1 group)", {"disk_sched=gss"}},
      {"round-robin", {"disk_sched=round-robin"}},
      {"real-time (2,4s)",
       {"disk_sched=real-time", "realtime_classes=2", "prefetch=real-time"}},
      {"real-time (3,4s)", {"disk_sched=real-time", "prefetch=real-time"}},
  };
  spec.cols = bench::SizeAxis("stripe_bytes", {128, 256, 512, 1024}, hw::kKiB,
                              "KB");
  bench::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
