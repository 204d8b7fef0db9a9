#include "vod/report.h"

#include <cmath>
#include <cstdio>
#include <type_traits>
#include <variant>

namespace spiffi::vod {

namespace {

// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

class Digest {
 public:
  void Bytes(const char* data, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= static_cast<unsigned char>(data[i]);
      hash_ *= kFnvPrime;
    }
  }
  // Every field goes through one of these, each terminated by '|' so
  // adjacent fields can never alias ("1","23" vs "12","3").
  void I64(std::int64_t v) {
    char buf[32];
    int n = std::snprintf(buf, sizeof(buf), "%lld|",
                          static_cast<long long>(v));
    Bytes(buf, static_cast<std::size_t>(n));
  }
  void U64(std::uint64_t v) {
    char buf[32];
    int n = std::snprintf(buf, sizeof(buf), "%llu|",
                          static_cast<unsigned long long>(v));
    Bytes(buf, static_cast<std::size_t>(n));
  }
  void F64(double v) {
    char buf[40];
    int n = std::snprintf(buf, sizeof(buf), "%.17g|", v);
    Bytes(buf, static_cast<std::size_t>(n));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

void WriteNumber(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

void WriteString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

// Every SimConfig field needs a digest leaf below; update the size when
// one is added.
static_assert(sizeof(SimConfig) == 600,
              "SimConfig changed: give the new field a ConfigDigest leaf");

std::uint64_t ConfigDigest(const SimConfig& c) {
  Digest d;
  // Hardware.
  d.I64(c.num_nodes);
  d.I64(c.disks_per_node);
  d.F64(c.cpu_mips);
  d.I64(c.cpu_costs.start_io_instructions);
  d.I64(c.cpu_costs.send_message_instructions);
  d.I64(c.cpu_costs.receive_message_instructions);
  d.F64(c.disk.seek_factor_ms);
  d.F64(c.disk.settle_time_ms);
  d.F64(c.disk.rotation_time_ms);
  d.F64(c.disk.transfer_rate_bytes_per_sec);
  d.I64(c.disk.cylinder_bytes);
  d.I64(c.disk.cache_context_bytes);
  d.I64(c.disk.cache_contexts);
  d.I64(c.disk.capacity_bytes);
  d.F64(c.network.wire_delay_base_sec);
  d.F64(c.network.wire_delay_per_byte_sec);
  d.F64(c.network.bandwidth_bucket_sec);
  // Videos.
  d.F64(c.mpeg.frames_per_second);
  d.F64(c.mpeg.bits_per_second);
  d.I64(c.mpeg.i_per_gop);
  d.I64(c.mpeg.p_per_gop);
  d.I64(c.mpeg.b_per_gop);
  d.I64(c.mpeg.i_size_weight);
  d.I64(c.mpeg.p_size_weight);
  d.I64(c.mpeg.b_size_weight);
  d.F64(c.video_seconds);
  d.I64(c.videos_per_disk);
  d.F64(c.zipf_z);
  // Layout.
  d.I64(static_cast<int>(c.placement));
  d.I64(c.stripe_bytes);
  d.I64(c.replica_count);
  // Faults.
  d.I64(static_cast<std::int64_t>(c.fault_plan.script.size()));
  for (const fault::FaultAction& a : c.fault_plan.script) {
    d.F64(a.time);
    d.I64(static_cast<int>(a.kind));
    d.I64(a.target);
    d.F64(a.factor);
  }
  d.F64(c.fault_plan.disk_mtbf_sec);
  d.F64(c.fault_plan.disk_repair_mean_sec);
  d.F64(c.fault_plan.node_mtbf_sec);
  d.F64(c.fault_plan.node_repair_mean_sec);
  d.F64(c.fault_plan.limp_mtbf_sec);
  d.F64(c.fault_plan.limp_duration_mean_sec);
  d.F64(c.fault_plan.limp_factor);
  d.I64(c.fault_plan.reroute_hop_budget);
  d.F64(c.fault_plan.recheck_sec);
  // Server memory & algorithms.
  d.I64(c.server_memory_bytes);
  d.I64(static_cast<int>(c.replacement));
  d.I64(static_cast<int>(c.disk_sched));
  d.I64(c.gss_groups);
  d.I64(c.realtime_classes);
  d.F64(c.realtime_spacing_sec);
  d.I64(static_cast<int>(c.prefetch));
  d.I64(c.prefetch_workers);
  d.I64(static_cast<int>(c.prefetch_trigger));
  d.F64(c.max_advance_prefetch_sec);
  // Terminals.
  d.I64(c.terminals);
  d.I64(c.terminal_memory_bytes);
  d.I64(c.pause_enabled ? 1 : 0);
  d.F64(c.pauses_per_video_mean);
  d.F64(c.pause_duration_mean_sec);
  d.I64(c.search_enabled ? 1 : 0);
  d.F64(c.searches_per_video_mean);
  d.F64(c.search_duration_mean_sec);
  d.F64(c.search_show_sec);
  d.F64(c.search_skip_sec);
  d.F64(c.piggyback_window_sec);
  d.F64(c.patch_window_sec);
  d.F64(c.prefix_cache_fraction);
  d.F64(c.prefix_recompute_sec);
  d.I64(c.proxy_nodes);
  d.I64(c.proxy_cache_pages);
  d.I64(static_cast<int>(c.proxy_policy));
  d.F64(c.proxy_recompute_sec);
  d.I64(c.random_initial_position ? 1 : 0);
  // Resilience.
  d.I64(static_cast<int>(c.admission_policy));
  d.F64(c.admission_headroom);
  d.F64(c.admission_defer_sec);
  d.I64(c.admission_max_defers);
  d.I64(c.request_retry_budget);
  d.F64(c.retry_min_timeout_sec);
  d.F64(c.retry_backoff_base_sec);
  d.F64(c.rebuild_mbps);
  // Run control.
  d.F64(c.start_window_sec);
  d.F64(c.warmup_seconds);
  d.F64(c.measure_seconds);
  d.U64(c.seed);
  return d.value();
}

void WriteRunReportJson(std::ostream& out, const RunReport& r) {
  const SimMetrics& m = r.metrics;
  out << "{\"label\":";
  WriteString(out, r.label);
  out << ",\"config\":";
  WriteString(out, r.config_summary);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.config_digest));
  out << ",\"config_digest\":\"" << digest << '"';
  out << ",\"seed\":" << r.seed;
  out << ",\"terminals\":" << r.terminals;
  out << ",\"sim_seconds\":";
  WriteNumber(out, r.sim_seconds);
  out << ",\"wall_seconds\":";
  WriteNumber(out, r.wall_seconds);
  out << ",\"events_per_sec\":";
  WriteNumber(out, r.events_per_sec);
  // Every SimMetrics field under its kMetricFields key — counts as
  // integers, the rest "%.17g" — then the derived ratios.
  out << ",\"metrics\":{";
  for (const MetricField& field : kMetricFields) {
    out << '"' << field.key << "\":";
    std::visit(
        [&](auto member) {
          if constexpr (std::is_floating_point_v<
                            std::remove_reference_t<decltype(m.*member)>>) {
            WriteNumber(out, m.*member);
          } else {
            out << m.*member;
          }
        },
        field.member);
    out << ',';
  }
  out << "\"buffer_hit_ratio\":";
  WriteNumber(out, m.hit_ratio());
  out << ",\"proxy_offload_ratio\":";
  WriteNumber(out, m.proxy_offload_ratio());
  out << "}";
  out << ",\"telemetry_path\":";
  WriteString(out, r.telemetry_path);
  out << "}\n";
}

}  // namespace spiffi::vod
