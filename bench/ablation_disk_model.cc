// Ablation: disk-model details. How much do the on-drive read-ahead
// cache and the terminal buffer size actually matter?
//
//  * Cache contexts: the drive's read-ahead only helps when the disk has
//    idle time and the next request continues a sequential stream — near
//    saturation the benefit should shrink.
//  * Terminal memory: the paper's scaleup discussion (§7.6) shows the
//    elevator needs more terminal buffering as service-time variance
//    grows; this sweep isolates the terminal-memory axis at 16 disks.

#include <cstdio>

#include "sweep.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  bench::Sweep cache;
  cache.title = "disk read-ahead cache and terminal memory";
  cache.paper_ref = "ablation";
  cache.corner = {"cache context"};
  cache.base = {"replacement=love-prefetch",
                bench::Token("server_memory_bytes", 512 * hw::kMiB)};
  cache.rows = bench::SizeAxis("disk.cache_context_bytes", {0, 64, 128, 256},
                               hw::kKiB, "KB");
  cache.cols = {{"max terminals", {}}};
  const bench::Grid cache_grid = bench::RunSweep(cache);
  std::printf("-- read-ahead cache context size --\n");
  bench::PrintSweep(cache, cache_grid);

  bench::Sweep terminal = cache;
  terminal.title = nullptr;
  terminal.corner = {"terminal memory"};
  terminal.rows.clear();
  for (double mb : {1.5, 2.0, 2.5, 3.0, 4.0}) {
    terminal.rows.push_back(
        {vod::FmtDouble(mb, 1) + " MB",
         {bench::Token("terminal_memory_bytes",
                       static_cast<std::int64_t>(
                           mb * static_cast<double>(hw::kMiB)))}});
  }
  std::printf("\n-- terminal memory (elevator, 512 KB stripe) --\n");
  bench::PrintSweep(terminal, bench::RunSweep(terminal));
  std::printf("\nMore terminal buffering tolerates longer worst-case "
              "service times and lifts the\nglitch-free capacity — the "
              "effect behind the elevator's poor scaleup in Table 2.\n");
  return 0;
}
