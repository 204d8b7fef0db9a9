#include "vod/config.h"

#include <cstdint>
#include <limits>
#include <sstream>

#include "vod/config_knobs.h"

namespace spiffi::vod {

std::string SimConfig::Validate() const {
  // Single-knob bounds first: the rules below divide by some of them.
  if (std::string error = KnobBoundError(*this); !error.empty()) {
    return error;
  }
  // total_disks() and num_videos() are int products; check them in 64
  // bits before anything below calls them.
  const std::int64_t disks =
      static_cast<std::int64_t>(num_nodes) * disks_per_node;
  if (disks > std::numeric_limits<int>::max()) {
    return "num_nodes * disks_per_node overflows int";
  }
  if (disks * videos_per_disk > std::numeric_limits<int>::max()) {
    return "videos_per_disk * num_nodes * disks_per_node overflows int";
  }
  if (std::string error = mpeg::FrameModel::ParamsError(mpeg);
      !error.empty()) {
    return error;
  }
  if (!(estimated_block_index_entries() <= kMaxBlockIndexEntries)) {
    return "the video library's block index would exceed "
           "kMaxBlockIndexEntries; raise stripe_bytes or shrink the "
           "library";
  }
  if (terminal_memory_bytes < stripe_bytes) {
    return "terminal memory must hold at least one stripe block";
  }
  if (pool_pages_per_node() < 2) {
    return "server memory must hold at least two pages per node";
  }
  // Bounds on doubles are written so that NaN fails them.
  if (prefetch == server::PrefetchPolicy::kDelayed &&
      !(max_advance_prefetch_sec > 0.0)) {
    return "max_advance_prefetch_sec must be positive for delayed "
           "prefetching";
  }
  if (placement == VideoPlacement::kNonStriped &&
      num_videos() % total_disks() != 0) {
    return "non-striped placement needs videos divisible by disks";
  }
  if (placement == VideoPlacement::kReplicatedStriped) {
    if (replica_count < 2) {
      return "replicated placement needs replica_count >= 2";
    }
    if (replica_count > num_nodes) {
      return "replica_count cannot exceed num_nodes (copies of a block "
             "must land on distinct nodes)";
    }
  }
  if (!(patch_window_sec < video_seconds)) {
    return "patch_window_sec must be shorter than the video";
  }
  if (prefix_cache_fraction > 0.0 && !(prefix_recompute_sec > 0.0)) {
    return "prefix_recompute_sec must be positive when the prefix cache "
           "is enabled";
  }
  if (proxy_nodes > 0) {
    if (proxy_cache_pages <= 0) {
      return "proxy_cache_pages must be positive when the proxy tier is "
             "enabled";
    }
    if (proxy_policy != proxy::ProxyPolicy::kLru &&
        !(proxy_recompute_sec > 0.0)) {
      return "proxy_recompute_sec must be positive for popularity-aware "
             "proxy policies";
    }
  }
  if (admission_policy != AdmissionPolicy::kOff) {
    if (!(admission_headroom > 0.0 && admission_headroom <= 1.0)) {
      return "admission_headroom must be in (0, 1]";
    }
    if (!(admission_defer_sec > 0.0)) {
      return "admission_defer_sec must be positive when admission "
             "control is enabled";
    }
    if (admission_max_defers < 0) {
      return "admission_max_defers must be non-negative";
    }
  }
  if (request_retry_budget > 0) {
    if (!(retry_min_timeout_sec > 0.0)) {
      return "retry_min_timeout_sec must be positive when retries are "
             "enabled";
    }
    if (!(retry_backoff_base_sec > 0.0)) {
      return "retry_backoff_base_sec must be positive when retries are "
             "enabled";
    }
  }
  if (!(warmup_seconds >= start_window_sec)) {
    return "warmup must cover the terminal start window";
  }
  return fault_plan.Validate(num_nodes, total_disks());
}

std::string SimConfig::Describe() const {
  std::ostringstream out;
  out << total_disks() << " disks, "
      << server_memory_bytes / hw::kMiB << " MB server, "
      << terminal_memory_bytes / hw::kMiB << " MB/terminal, stripe "
      << stripe_bytes / hw::kKiB << " KB, "
      << server::DiskSchedPolicyName(disk_sched);
  if (disk_sched == server::DiskSchedPolicy::kGss) {
    out << "(" << gss_groups << ")";
  }
  if (disk_sched == server::DiskSchedPolicy::kRealTime) {
    out << "(" << realtime_classes << " classes, " << realtime_spacing_sec
        << " s)";
  }
  out << ", "
      << (replacement == server::ReplacementPolicy::kGlobalLru
              ? "global-lru"
              : "love-prefetch")
      << ", prefetch " << server::PrefetchPolicyName(prefetch);
  if (prefetch == server::PrefetchPolicy::kDelayed) {
    out << "(" << max_advance_prefetch_sec << " s)";
  }
  out << ", ";
  switch (placement) {
    case VideoPlacement::kStriped: out << "striped"; break;
    case VideoPlacement::kNonStriped: out << "non-striped"; break;
    case VideoPlacement::kReplicatedStriped:
      out << "replicated(x" << replica_count << ")";
      break;
  }
  out << ", z=" << zipf_z;
  if (piggyback_window_sec > 0.0) {
    out << ", batch " << piggyback_window_sec << " s";
  }
  if (patch_window_sec > 0.0) out << ", patch " << patch_window_sec << " s";
  if (prefix_cache_fraction > 0.0) {
    out << ", prefix " << prefix_cache_fraction;
  }
  if (proxy_nodes > 0) {
    out << ", proxy " << proxy_nodes << "x" << proxy_cache_pages << " "
        << proxy::ProxyPolicyName(proxy_policy);
  }
  if (admission_policy != AdmissionPolicy::kOff) {
    out << ", admission " << AdmissionPolicyName(admission_policy) << "@"
        << admission_headroom;
  }
  if (request_retry_budget > 0) {
    out << ", retry x" << request_retry_budget;
  }
  if (rebuild_mbps > 0.0) out << ", rebuild " << rebuild_mbps << " Mbps";
  if (fault_plan.enabled()) out << ", faults: " << fault_plan.Describe();
  return out.str();
}

}  // namespace spiffi::vod
