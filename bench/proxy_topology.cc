// Hierarchical proxy tier: two-tier topology with popularity-aware
// cache policies (proxy/proxy_node.h).
//
// Two questions, two phases:
//
//  1. Origin offload — at a fixed terminal count, how much of the
//     request stream do the proxy caches absorb (hits + attaches) as a
//     function of cache size, replacement policy, and popularity skew?
//     Swept at the video-rental skew (z = 0.271) and the paper's
//     default z = 1; offload must grow with cache size and the
//     popularity-aware policies must not trail plain LRU at high skew.
//
//  2. Capacity gain — the offloaded origin work buys admission
//     headroom: glitch-free capacity with the proxy tier off vs on,
//     same hardware.

#include <string>
#include <vector>

#include "proxy/proxy_cache.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  const bool smoke = bench::ActivePreset() == bench::Preset::kSmoke;

  constexpr int kProxies = 4;

  // Proxy caches pay off when request streams overlap: terminals watch
  // from the beginning (VCR-style starts, as in the stream-share
  // experiments) staggered over a wide arrival window, over a compact
  // popular library of 10-minute features. At 4 Mbit/s one 512 KB page
  // holds one second of footage, so pages/proxy reads directly as the
  // seconds of trailing footage a follower can still find cached.
  const double start_window = smoke ? 120.0 : 600.0;
  const std::vector<std::string> shared_start = {
      "videos_per_disk=1",  // 16-video popular library
      "video_seconds=600", "random_initial_position=false",
      vod::Token("start_window_sec", start_window),
      vod::Token("warmup_seconds", start_window + 60.0),
      vod::Token("measure_seconds", smoke ? 60.0 : 240.0)};

  // --- Phase 1: origin offload at fixed load ---
  const std::vector<std::int64_t> cache_pages =
      smoke ? std::vector<std::int64_t>{128, 512}
            : std::vector<std::int64_t>{128, 512, 2048};
  const std::vector<double> skews =
      smoke ? std::vector<double>{0.271} : std::vector<double>{0.271, 1.0};
  bench::PrintHeader("hierarchical proxy tier", "two-tier topology");
  vod::Sweep offload;
  offload.corner = {"z", "policy", "pages/proxy"};
  offload.base = shared_start;
  offload.base.push_back(vod::Token("terminals", smoke ? 60 : 160));
  offload.base.push_back(vod::Token("proxy_nodes", kProxies));
  for (double z : skews) {
    for (const char* policy : proxy::kProxyPolicyNames) {
      for (std::int64_t pages : cache_pages) {
        offload.rows.push_back(
            {vod::FmtDouble(z, 3),
             {vod::Token("zipf_z", z), std::string("proxy_policy=") + policy,
              vod::Token("proxy_cache_pages", pages)},
             {},
             {policy, std::to_string(pages)}});
      }
    }
  }
  offload.cols = {{"offload", {}}};
  offload.fixed_count = true;
  offload.format = [](const vod::Cell& cell) {
    return vod::FmtDouble(cell.metrics.proxy_offload_ratio(), 3);
  };
  offload.extra = {"hit ratio", "origin reads/s", "fwd ms"};
  offload.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    const vod::SimMetrics& m = grid[r][0].metrics;
    double hit_ratio =
        m.proxy_references == 0
            ? 0.0
            : static_cast<double>(m.proxy_hits) / m.proxy_references;
    double origin_reads_per_sec =
        m.measured_seconds == 0.0 ? 0.0 : m.disk_reads / m.measured_seconds;
    return vod::Cells{vod::FmtDouble(hit_ratio, 3),
                      vod::FmtDouble(origin_reads_per_sec, 1),
                      vod::FmtDouble(m.avg_proxy_forward_ms, 2)};
  };
  vod::PrintSweep(offload, bench::RunSweep(offload));

  // --- Phase 2: capacity gain from the offload ---
  // The proxy tier buys admission headroom only when the origin is the
  // bottleneck: a lean origin pool (128 MB across the cluster) over the
  // full 64-video library, so origin disks carry the misses the proxies
  // fail to absorb.
  const std::int64_t proxied_pages = smoke ? 512 : 2048;
  vod::Sweep capacity;
  capacity.corner = {"topology"};
  capacity.base = shared_start;
  capacity.base.insert(capacity.base.end(),
                       {"videos_per_disk=4",  // full library again
                        vod::Token("server_memory_bytes", 128 * hw::kMiB),
                        "zipf_z=0.271"});
  capacity.search = {.step = smoke ? 25 : 10, .ceiling = smoke ? 400 : 1200};
  capacity.rows = {
      {"flat", {}},
      {"proxy " + std::to_string(kProxies) + "x" +
           std::to_string(proxied_pages) + " rank-zipf",
       {vod::Token("proxy_nodes", kProxies),
        vod::Token("proxy_cache_pages", proxied_pages),
        "proxy_policy=rank-zipf"}}};
  capacity.cols = {{"capacity", {}}};
  capacity.extra = {"gain"};
  capacity.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    return vod::Cells{r == 0 ? "x1.00"
                             : vod::Gain(grid[r][0].terminals,
                                         grid[0][0].terminals)};
  };
  vod::PrintSweep(capacity, bench::RunSweep(capacity));
  return 0;
}
