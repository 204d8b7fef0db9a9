#include "vod/config.h"

#include <sstream>

namespace spiffi::vod {

std::string SimConfig::Validate() const {
  if (num_nodes <= 0) return "num_nodes must be positive";
  if (disks_per_node <= 0) return "disks_per_node must be positive";
  if (cpu_mips <= 0.0) return "cpu_mips must be positive";
  if (video_seconds <= 0.0) return "video_seconds must be positive";
  if (std::string error = mpeg::FrameModel::ParamsError(mpeg);
      !error.empty()) {
    return error;
  }
  if (videos_per_disk <= 0) return "videos_per_disk must be positive";
  if (zipf_z < 0.0) return "zipf_z must be non-negative";
  if (stripe_bytes <= 0) return "stripe_bytes must be positive";
  if (terminals <= 0) return "terminals must be positive";
  if (terminal_memory_bytes < stripe_bytes) {
    return "terminal memory must hold at least one stripe block";
  }
  if (pool_pages_per_node() < 2) {
    return "server memory must hold at least two pages per node";
  }
  if (gss_groups <= 0) return "gss_groups must be positive";
  if (realtime_classes <= 0) return "realtime_classes must be positive";
  if (realtime_spacing_sec <= 0.0) {
    return "realtime_spacing_sec must be positive";
  }
  if (prefetch == server::PrefetchPolicy::kDelayed &&
      max_advance_prefetch_sec <= 0.0) {
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
  if (piggyback_window_sec < 0.0) {
    return "piggyback_window_sec must be non-negative";
  }
  if (patch_window_sec < 0.0) {
    return "patch_window_sec must be non-negative";
  }
  if (patch_window_sec >= video_seconds) {
    return "patch_window_sec must be shorter than the video";
  }
  if (prefix_cache_fraction < 0.0 || prefix_cache_fraction > 0.5) {
    return "prefix_cache_fraction must be in [0, 0.5] (pinned pages must "
           "leave the pool eviction headroom)";
  }
  if (prefix_cache_fraction > 0.0 && prefix_recompute_sec <= 0.0) {
    return "prefix_recompute_sec must be positive when the prefix cache "
           "is enabled";
  }
  if (proxy_nodes < 0) return "proxy_nodes must be non-negative";
  if (proxy_nodes > 0) {
    if (proxy_cache_pages <= 0) {
      return "proxy_cache_pages must be positive when the proxy tier is "
             "enabled";
    }
    if (proxy_policy != proxy::ProxyPolicy::kLru &&
        proxy_recompute_sec <= 0.0) {
      return "proxy_recompute_sec must be positive for popularity-aware "
             "proxy policies";
    }
  }
  if (admission_policy != AdmissionPolicy::kOff) {
    if (admission_headroom <= 0.0 || admission_headroom > 1.0) {
      return "admission_headroom must be in (0, 1]";
    }
    if (admission_defer_sec <= 0.0) {
      return "admission_defer_sec must be positive when admission "
             "control is enabled";
    }
    if (admission_max_defers < 0) {
      return "admission_max_defers must be non-negative";
    }
  }
  if (request_retry_budget < 0) {
    return "request_retry_budget must be non-negative";
  }
  if (request_retry_budget > 0) {
    if (retry_min_timeout_sec <= 0.0) {
      return "retry_min_timeout_sec must be positive when retries are "
             "enabled";
    }
    if (retry_backoff_base_sec <= 0.0) {
      return "retry_backoff_base_sec must be positive when retries are "
             "enabled";
    }
  }
  if (rebuild_mbps < 0.0) return "rebuild_mbps must be non-negative";
  if (warmup_seconds < start_window_sec) {
    return "warmup must cover the terminal start window";
  }
  if (measure_seconds <= 0.0) return "measure_seconds must be positive";
  std::string fault_error =
      fault_plan.Validate(num_nodes, total_disks());
  if (!fault_error.empty()) return fault_error;
  return "";
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
