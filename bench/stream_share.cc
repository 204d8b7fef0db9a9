// Stream-sharing service tier: batching + patching + pinned prefix
// caching. Extends the §8.2 piggybacking experiment: the capacity gain
// from sharing grows with the request rate (shorter videos => more
// start requests per terminal-hour), because a larger fraction of
// arrivals lands inside an open batching window or patch window. The
// sweep holds hardware fixed and varies the video length under the
// video-rental Zipf skew (z = 0.271), reporting glitch-free capacity
// with sharing off and on — the gain is super-linear in request rate.

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  const bench::Preset preset = bench::ActivePreset();
  const bool smoke = preset == bench::Preset::kSmoke;

  constexpr double kBatchWindowSec = 60.0;

  bench::PrintHeader("stream-sharing service tier", "Section 8.2 extended");
  vod::Sweep spec;
  // Shared-mode terminals watch from the beginning; the steady-state
  // position spread must come from staggered starts (see
  // sec82_piggyback.cc), and the warmup must cover the spread plus the
  // batching delay.
  const double start_window = smoke ? 120.0 : 900.0;
  spec.base = {"disk_sched=elevator", "replacement=love-prefetch",
               vod::Token("server_memory_bytes", 512 * hw::kMiB),
               "zipf_z=0.271",  // video-rental popularity skew
               vod::Token("start_window_sec", start_window),
               vod::Token("warmup_seconds",
                          start_window + kBatchWindowSec + 60.0)};
  spec.search = {.step = preset == bench::Preset::kFull ? 5 : 25,
                 .ceiling = 2400};
  // Shorter videos = higher request rate. Smoke trims the sweep to one
  // point so CI finishes in seconds.
  const std::vector<double> video_seconds =
      smoke ? std::vector<double>{600.0}
            : std::vector<double>{1800.0, 1200.0, 600.0};
  spec.corner = {"video len", "req/term/hr"};
  for (double seconds : video_seconds) {
    spec.rows.push_back({vod::FmtDouble(seconds / 60.0, 0) + " min",
                         {vod::Token("video_seconds", seconds)},
                         {},
                         {vod::FmtDouble(3600.0 / seconds, 1)}});
  }
  // Sharing off must still stagger starts so both columns measure the
  // same workload; only the service tier differs. Sharing is batching
  // window + patch window + pinned prefix cache, all modest: one minute
  // of commercials, 45 s of catch-up unicast, a quarter of the pool
  // pinned on popular prefixes.
  spec.cols = {{"capacity off", {"random_initial_position=false"}},
               {"capacity shared",
                {vod::Token("piggyback_window_sec", kBatchWindowSec),
                 "patch_window_sec=45", "prefix_cache_fraction=0.25"}}};
  spec.format = [](const vod::Cell& cell) {
    return std::to_string(cell.terminals) + (cell.at_ceiling ? " (cap)" : "");
  };
  spec.extra = {"gain"};
  spec.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    return vod::Cells{
        vod::Gain(grid[r][1].terminals, grid[r][0].terminals)};
  };
  vod::PrintSweep(spec, bench::RunSweep(spec));
  return 0;
}
