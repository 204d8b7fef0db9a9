// Simulation configuration: every Table-1 parameter plus the algorithm
// selections compared in §7.

#ifndef SPIFFI_VOD_CONFIG_H_
#define SPIFFI_VOD_CONFIG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "client/terminal.h"
#include "fault/plan.h"
#include "vod/admission.h"
#include "hw/cpu.h"
#include "hw/disk_params.h"
#include "hw/network.h"
#include "mpeg/frame_model.h"
#include "proxy/proxy_cache.h"
#include "server/buffer_pool.h"
#include "server/disk_sched.h"
#include "server/prefetch.h"

namespace spiffi::vod {

// Validate() rejects a configuration whose video library would need more
// block-start entries (8 bytes each, one per stripe block) than this:
// 512 MB of index. Paper scale, 256 one-hour videos at 512 KiB, needs
// about 0.9 M.
inline constexpr std::int64_t kMaxBlockIndexEntries = std::int64_t{1} << 26;

// kReplicatedStriped stores `replica_count` chained-declustered copies
// of every stripe block (layout::ReplicatedStripedLayout); the extra
// copies only matter when a FaultPlan takes disks or nodes down.
enum class VideoPlacement { kStriped, kNonStriped, kReplicatedStriped };

struct SimConfig {
  // --- Hardware (Table 1 defaults) ---
  int num_nodes = 4;
  int disks_per_node = 4;
  double cpu_mips = 40.0;
  hw::CpuCosts cpu_costs;
  hw::DiskParams disk;
  hw::NetworkParams network;

  // --- Videos ---
  mpeg::MpegParams mpeg;
  double video_seconds = 3600.0;  // one-hour videos
  int videos_per_disk = 4;        // library size = 4 x total disks
  double zipf_z = 1.0;            // 0 => uniform popularity

  // --- Layout ---
  VideoPlacement placement = VideoPlacement::kStriped;
  std::int64_t stripe_bytes = 512 * hw::kKiB;  // also the read size
  int replica_count = 2;  // kReplicatedStriped only; 2 <= ... <= nodes

  // --- Faults ---
  // Empty (the default) runs with the fault subsystem disabled and is
  // bit-identical to a configuration predating it.
  fault::FaultPlan fault_plan;

  // --- Server memory & algorithms ---
  std::int64_t server_memory_bytes = 4LL * hw::kGiB;  // aggregate
  server::ReplacementPolicy replacement =
      server::ReplacementPolicy::kGlobalLru;
  server::DiskSchedPolicy disk_sched = server::DiskSchedPolicy::kElevator;
  int gss_groups = 1;
  int realtime_classes = 3;
  double realtime_spacing_sec = 4.0;
  server::PrefetchPolicy prefetch = server::PrefetchPolicy::kFifo;
  // <= 0 selects the per-policy default: 1 worker per disk for the
  // non-real-time schedulers (prefetching "severely limited" so it does
  // not interfere with real requests) and 64 for real-time scheduling
  // (aggressive, effectively unconstrained prefetching — the real-time
  // scheduler can park prefetches at low priority), per §7.3.
  int prefetch_workers = 0;
  // kAuto mirrors the paper's per-scheduler prefetch configuration:
  // on-miss (limited) for elevator/GSS/round-robin, on-reference
  // (aggressive) for real-time scheduling.
  enum class TriggerMode { kAuto, kOnMiss, kOnReference };
  TriggerMode prefetch_trigger = TriggerMode::kAuto;
  double max_advance_prefetch_sec = 8.0;

  // --- Terminals ---
  int terminals = 200;
  std::int64_t terminal_memory_bytes = 2 * hw::kMiB;
  bool pause_enabled = false;
  double pauses_per_video_mean = 2.0;
  double pause_duration_mean_sec = 120.0;
  // Visual search (§8.1): skip-based fast-forward/rewind.
  bool search_enabled = false;
  double searches_per_video_mean = 1.0;
  double search_duration_mean_sec = 30.0;
  double search_show_sec = 1.0;
  double search_skip_sec = 7.0;
  double piggyback_window_sec = 0.0;  // batching window; 0 => disabled
  // Stream sharing (client/stream_share.h): terminals arriving up to
  // patch_window_sec after a shared stream started join it anyway,
  // fetching only the missed prefix over a short unicast catch-up
  // stream. 0 disables patching; batching and patching are independent.
  double patch_window_sec = 0.0;
  // Pinned prefix cache: each node pins up to this fraction of its
  // buffer pool on the first blocks of popular videos (sized by
  // measured demand, refreshed every prefix_recompute_sec), so patch
  // streams and new groups start from memory. 0 disables.
  double prefix_cache_fraction = 0.0;
  double prefix_recompute_sec = 30.0;
  // --- Proxy tier (proxy/proxy_node.h) ---
  // Proxy-cache nodes between the terminals and the origin cluster.
  // Terminals route every request to their assigned proxy (terminal %
  // proxy_nodes); hits are served there, misses forwarded to the origin.
  // 0 disables the tier (flat topology, bit-identical to before).
  int proxy_nodes = 0;
  std::int64_t proxy_cache_pages = 256;  // per proxy, in stripe blocks
  proxy::ProxyPolicy proxy_policy = proxy::ProxyPolicy::kLru;
  double proxy_recompute_sec = 30.0;  // popularity re-rank/re-quota period
  // First videos start at random playback positions (steady-state
  // initialization); disabled automatically when stream sharing is on.
  bool random_initial_position = true;
  bool stream_sharing_enabled() const {
    return piggyback_window_sec > 0.0 || patch_window_sec > 0.0;
  }

  // --- Resilience (vod/admission.h, ISSUE 9) ---
  // Session admission control: kOff (default) admits everyone and stays
  // bit-identical to configurations predating it; static-reservation
  // reserves each stream's steady rate against the live-node envelope;
  // measured-headroom additionally defers while measured mean disk
  // utilization is at the headroom cap.
  AdmissionPolicy admission_policy = AdmissionPolicy::kOff;
  // Fraction of the aggregate disk envelope admissions may fill.
  double admission_headroom = 0.85;
  // A deferred session retries after this delay (doubling per
  // consecutive deferral, capped at 16x; a rejection waits the full
  // 16x cooldown before trying again).
  double admission_defer_sec = 2.0;
  // Consecutive deferrals of one session before it is rejected.
  int admission_max_defers = 8;
  // Block-request timeout/retry: when > 0, each outstanding block
  // request arms a deadline-derived timeout and is retried against the
  // next live replica up to this many times with bounded exponential
  // backoff. 0 (default) keeps today's wait-until-glitch behaviour and
  // is bit-identical to it.
  int request_retry_budget = 0;
  double retry_min_timeout_sec = 0.25;   // floor on the first timeout
  double retry_backoff_base_sec = 0.25;  // doubled per retry attempt
  // Post-repair rebuild: a repaired disk re-reads its stripe regions
  // from replica peers at this throttled rate (competing with service
  // I/O) before it counts as fully restored. 0 disables; only
  // replicated layouts have peers to rebuild from.
  double rebuild_mbps = 0.0;

  // --- Run control ---
  // Terminals start at uniform random times in [0, start_window_sec);
  // statistics collection begins at warmup_seconds (>= start window) and
  // runs for measure_seconds.
  double start_window_sec = 60.0;
  double warmup_seconds = 100.0;
  double measure_seconds = 120.0;
  std::uint64_t seed = 1;

  // --- Derived ---
  int total_disks() const { return num_nodes * disks_per_node; }
  int num_videos() const { return videos_per_disk * total_disks(); }
  // Expected peak of simultaneously pending calendar events, used to
  // pre-size the kernel's event heap (Environment::ReserveCalendar) so a
  // steady-state run never reallocates it. Each terminal keeps a handful
  // of events in flight (frame timer, outstanding request, wait-list
  // timer + its pending notification); disks, prefetch workers (each
  // disk has its own prefetcher's workers), and the per-node machinery
  // add a few each. Generously rounded up — entries are ~40 bytes, so
  // over-reserving is cheap and under-reserving costs mid-run
  // reallocation.
  std::size_t expected_peak_events() const {
    return static_cast<std::size_t>(terminals) * 8 +
           static_cast<std::size_t>(total_disks()) *
               (16 + static_cast<std::size_t>(effective_prefetch_workers())) +
           static_cast<std::size_t>(num_nodes) * 8 + 1024;
  }
  // num_videos() x ceil(video bytes / stripe_bytes), taking a video's
  // bytes at the nominal MPEG rate. A double, so that absurd configs
  // compare instead of overflowing.
  double estimated_block_index_entries() const {
    return num_videos() *
           std::ceil(video_seconds * mpeg.bytes_per_second() / stripe_bytes);
  }
  std::int64_t pool_pages_per_node() const {
    return server_memory_bytes / num_nodes / stripe_bytes;
  }
  int effective_prefetch_workers() const {
    if (prefetch_workers > 0) return prefetch_workers;
    return disk_sched == server::DiskSchedPolicy::kRealTime ? 64 : 1;
  }
  server::PrefetchTrigger effective_prefetch_trigger() const {
    switch (prefetch_trigger) {
      case TriggerMode::kOnMiss:
        return server::PrefetchTrigger::kOnMiss;
      case TriggerMode::kOnReference:
        return server::PrefetchTrigger::kOnReference;
      case TriggerMode::kAuto:
        break;
    }
    return disk_sched == server::DiskSchedPolicy::kRealTime
               ? server::PrefetchTrigger::kOnReference
               : server::PrefetchTrigger::kOnMiss;
  }

  // Returns an empty string when the configuration is usable, else a
  // human-readable description of the first problem found.
  std::string Validate() const;

  // One-line summary of the algorithm selections (for reports).
  std::string Describe() const;
};

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_CONFIG_H_
