// The table that declares each SimConfig knob once, and what is built
// from it: the single-knob range checks of SimConfig::Validate(),
// ConfigDigest, and a `key=value` dump and parse that let any run be
// replayed from its report line.
//
// A knob is a scalar SimConfig member or a scalar member of one of its
// nested parameter structs, keyed by its own (dotted) name:
// `num_nodes`, `disk.seek_factor_ms`, `fault_plan.disk_mtbf_sec`, ...
// `fault_plan.script` is the one variable-length knob. A new knob takes
// its declaration, one row here, and the code that reads it; a member
// without a row fails to compile.

#ifndef SPIFFI_VOD_CONFIG_KNOBS_H_
#define SPIFFI_VOD_CONFIG_KNOBS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "fault/plan.h"
#include "vod/config.h"
#include "vod/member_count.h"

namespace spiffi::vod {

// The range a knob must lie in whatever the other knobs say. Rules that
// depend on another knob stay hand-written in SimConfig::Validate().
struct KnobBound {
  enum Kind { kNone, kNonNegative, kPositive, kRange };
  Kind kind = kNone;
  double lo = 0.0;  // kRange: the closed interval [lo, hi]
  double hi = 0.0;
};
inline constexpr KnobBound kNonNegative{KnobBound::kNonNegative};
inline constexpr KnobBound kPositive{KnobBound::kPositive};

// Value names, in enumerator order, of the enum and bool knobs whose
// component declares none.
inline constexpr const char* kBoolNames[] = {"false", "true"};
inline constexpr const char* kPlacementNames[] = {"striped", "non-striped",
                                                  "replicated-striped"};
inline constexpr const char* kReplacementNames[] = {"global-lru",
                                                    "love-prefetch"};
inline constexpr const char* kTriggerNames[] = {"auto", "on-miss",
                                                "on-reference"};

struct ConfigKnob {
  template <typename T>
  using Ref = const T& (*)(const SimConfig&);
  using Access =
      std::variant<Ref<int>, Ref<std::int64_t>, Ref<std::uint64_t>,
                   Ref<double>, Ref<bool>, Ref<VideoPlacement>,
                   Ref<server::ReplacementPolicy>,
                   Ref<server::DiskSchedPolicy>, Ref<server::PrefetchPolicy>,
                   Ref<SimConfig::TriggerMode>, Ref<proxy::ProxyPolicy>,
                   Ref<AdmissionPolicy>, Ref<std::vector<fault::FaultAction>>>;

  const char* key;  // the member's name, dotted under a nested struct
  Access get;       // the member of a config
  KnobBound bound = {};
  std::span<const char* const> names = {};  // enum and bool knobs only
};

#define SPIFFI_KNOB(member, ...)                                         \
  ConfigKnob {                                                           \
    #member, +[](const SimConfig& c) -> const auto& { return c.member; }, \
        __VA_ARGS__                                                      \
  }
// In ConfigDigest's leaf order, which is the declaration order.
inline constexpr ConfigKnob kConfigKnobs[] = {
    // Hardware.
    SPIFFI_KNOB(num_nodes, kPositive),
    SPIFFI_KNOB(disks_per_node, kPositive),
    SPIFFI_KNOB(cpu_mips, kPositive),
    SPIFFI_KNOB(cpu_costs.start_io_instructions),
    SPIFFI_KNOB(cpu_costs.send_message_instructions),
    SPIFFI_KNOB(cpu_costs.receive_message_instructions),
    SPIFFI_KNOB(disk.seek_factor_ms),
    SPIFFI_KNOB(disk.settle_time_ms),
    SPIFFI_KNOB(disk.rotation_time_ms),
    SPIFFI_KNOB(disk.transfer_rate_bytes_per_sec),
    SPIFFI_KNOB(disk.cylinder_bytes),
    SPIFFI_KNOB(disk.cache_context_bytes),
    SPIFFI_KNOB(disk.cache_contexts),
    SPIFFI_KNOB(disk.capacity_bytes),
    SPIFFI_KNOB(network.wire_delay_base_sec),
    SPIFFI_KNOB(network.wire_delay_per_byte_sec),
    SPIFFI_KNOB(network.bandwidth_bucket_sec),
    // Videos (the frame model checks its own parameters: ParamsError).
    SPIFFI_KNOB(mpeg.frames_per_second),
    SPIFFI_KNOB(mpeg.bits_per_second),
    SPIFFI_KNOB(mpeg.i_per_gop),
    SPIFFI_KNOB(mpeg.p_per_gop),
    SPIFFI_KNOB(mpeg.b_per_gop),
    SPIFFI_KNOB(mpeg.i_size_weight),
    SPIFFI_KNOB(mpeg.p_size_weight),
    SPIFFI_KNOB(mpeg.b_size_weight),
    SPIFFI_KNOB(video_seconds, kPositive),
    SPIFFI_KNOB(videos_per_disk, kPositive),
    SPIFFI_KNOB(zipf_z, kNonNegative),
    // Layout.
    SPIFFI_KNOB(placement, {}, kPlacementNames),
    SPIFFI_KNOB(stripe_bytes, kPositive),
    SPIFFI_KNOB(replica_count),
    // Faults (FaultPlan::Validate checks the plan).
    SPIFFI_KNOB(fault_plan.script),
    SPIFFI_KNOB(fault_plan.disk_mtbf_sec),
    SPIFFI_KNOB(fault_plan.disk_repair_mean_sec),
    SPIFFI_KNOB(fault_plan.node_mtbf_sec),
    SPIFFI_KNOB(fault_plan.node_repair_mean_sec),
    SPIFFI_KNOB(fault_plan.limp_mtbf_sec),
    SPIFFI_KNOB(fault_plan.limp_duration_mean_sec),
    SPIFFI_KNOB(fault_plan.limp_factor),
    SPIFFI_KNOB(fault_plan.reroute_hop_budget),
    SPIFFI_KNOB(fault_plan.recheck_sec),
    // Server memory & algorithms.
    SPIFFI_KNOB(server_memory_bytes),
    SPIFFI_KNOB(replacement, {}, kReplacementNames),
    SPIFFI_KNOB(disk_sched, {}, server::kDiskSchedPolicyNames),
    SPIFFI_KNOB(gss_groups, kPositive),
    SPIFFI_KNOB(realtime_classes, kPositive),
    SPIFFI_KNOB(realtime_spacing_sec, kPositive),
    SPIFFI_KNOB(prefetch, {}, server::kPrefetchPolicyNames),
    SPIFFI_KNOB(prefetch_workers),
    SPIFFI_KNOB(prefetch_trigger, {}, kTriggerNames),
    SPIFFI_KNOB(max_advance_prefetch_sec),
    // Terminals.
    SPIFFI_KNOB(terminals, kPositive),
    SPIFFI_KNOB(terminal_memory_bytes),
    SPIFFI_KNOB(pause_enabled, {}, kBoolNames),
    SPIFFI_KNOB(pauses_per_video_mean),
    SPIFFI_KNOB(pause_duration_mean_sec),
    SPIFFI_KNOB(search_enabled, {}, kBoolNames),
    SPIFFI_KNOB(searches_per_video_mean),
    SPIFFI_KNOB(search_duration_mean_sec),
    SPIFFI_KNOB(search_show_sec),
    SPIFFI_KNOB(search_skip_sec),
    SPIFFI_KNOB(piggyback_window_sec, kNonNegative),
    SPIFFI_KNOB(patch_window_sec, kNonNegative),
    // Pinned prefix pages must leave the pool eviction headroom.
    SPIFFI_KNOB(prefix_cache_fraction, {KnobBound::kRange, 0.0, 0.5}),
    SPIFFI_KNOB(prefix_recompute_sec),
    SPIFFI_KNOB(proxy_nodes, kNonNegative),
    SPIFFI_KNOB(proxy_cache_pages),
    SPIFFI_KNOB(proxy_policy, {}, proxy::kProxyPolicyNames),
    SPIFFI_KNOB(proxy_recompute_sec),
    SPIFFI_KNOB(random_initial_position, {}, kBoolNames),
    // Resilience.
    SPIFFI_KNOB(admission_policy, {}, kAdmissionPolicyNames),
    SPIFFI_KNOB(admission_headroom),
    SPIFFI_KNOB(admission_defer_sec),
    SPIFFI_KNOB(admission_max_defers),
    SPIFFI_KNOB(request_retry_budget, kNonNegative),
    SPIFFI_KNOB(retry_min_timeout_sec),
    SPIFFI_KNOB(retry_backoff_base_sec),
    SPIFFI_KNOB(rebuild_mbps, kNonNegative),
    // Run control.
    SPIFFI_KNOB(start_window_sec),
    SPIFFI_KNOB(warmup_seconds),
    SPIFFI_KNOB(measure_seconds, kPositive),
    SPIFFI_KNOB(seed),
};
#undef SPIFFI_KNOB

// FNV-1a digest over a canonical serialization of every knob (seed
// included), one "value|" leaf per row in table order: integers, enums
// and bools as "%lld" (seed "%llu"), doubles as "%.17g", and the fault
// script as its size then four leaves per action. Equal digests =>
// bit-identical runs; any knob change perturbs the digest. The text is
// platform-independent, so digests compare across machines.
std::uint64_t ConfigDigest(const SimConfig& config);

// "" when every knob lies within its bound, else the first row's
// violation: "<key> must be positive" (non-negative, in [lo, hi]).
std::string KnobBoundError(const SimConfig& config);

// Every knob as space-separated `key=value` tokens in table order:
// numbers as in ConfigDigest (so they read back exactly), enums and
// bools by name, and the fault script as one token of comma-separated
// `time:kind:target:factor` actions (empty when there is none).
std::string FormatConfig(const SimConfig& config);

// Sets the knob `key` from FormatConfig value text. Returns "" on
// success, else why the key or value was rejected (unknown key,
// malformed or non-finite number, trailing junk, integer out of range,
// unknown name), leaving `config` unchanged. Range checks are left to
// SimConfig::Validate().
std::string SetConfigKnob(SimConfig* config, std::string_view key,
                          std::string_view value);

namespace config_knobs_internal {

// Rows keyed `group.<member>`; group "" holds the top-level members.
constexpr std::size_t RowsIn(std::string_view group) {
  std::size_t rows = 0;
  for (const ConfigKnob& knob : kConfigKnobs) {
    std::string_view key = knob.key;
    std::size_t dot = key.find('.');
    if ((dot == std::string_view::npos ? "" : key.substr(0, dot)) == group) {
      ++rows;
    }
  }
  return rows;
}

// Keys are the members' own names, so distinct keys name distinct
// members; with as many rows per struct as it has members, every member
// has exactly one row. Names sit exactly on the enum and bool rows.
constexpr bool OneRowPerMember() {
  for (std::size_t i = 0; i < std::size(kConfigKnobs); ++i) {
    const ConfigKnob& knob = kConfigKnobs[i];
    bool named = std::visit(
        [](auto get) {
          using T = std::remove_cvref_t<decltype(get(SimConfig{}))>;
          return std::is_enum_v<T> || std::is_same_v<T, bool>;
        },
        knob.get);
    if (named == knob.names.empty()) return false;
    for (std::size_t j = i + 1; j < std::size(kConfigKnobs); ++j) {
      if (std::string_view(knob.key) == kConfigKnobs[j].key) return false;
    }
  }
  return RowsIn("cpu_costs") == CountMembers<hw::CpuCosts>() &&
         RowsIn("disk") == CountMembers<hw::DiskParams>() &&
         RowsIn("network") == CountMembers<hw::NetworkParams>() &&
         RowsIn("mpeg") == CountMembers<mpeg::MpegParams>() &&
         RowsIn("fault_plan") == CountMembers<fault::FaultPlan>() &&
         // A nested struct is one member of SimConfig; a new one needs
         // its own line above.
         RowsIn("") + 5 == CountMembers<SimConfig>();
}

}  // namespace config_knobs_internal

static_assert(config_knobs_internal::OneRowPerMember(),
              "kConfigKnobs: give each SimConfig member, and each member "
              "of its nested structs, exactly one row (enum and bool rows "
              "with their names)");

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_CONFIG_KNOBS_H_
