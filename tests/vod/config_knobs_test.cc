// The kConfigKnobs table: ConfigDigest pinned to committed goldens, the
// FormatConfig / SetConfigKnob round trip, and the table-driven range
// checks of SimConfig::Validate() against a frozen copy of the
// hand-written rules they replaced.

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "mpeg/frame_model.h"
#include "vod/config_knobs.h"
#include "vod/report.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

// --- The six golden configurations ---

SimConfig PaperScale64() {
  SimConfig c;
  c.seed = 1;
  c.num_nodes = 4;
  c.disks_per_node = 16;
  c.replacement = server::ReplacementPolicy::kLovePrefetch;
  c.terminal_memory_bytes = 5 * hw::kMiB / 2;
  return c;
}

// perfbench's steady64 workload shape.
SimConfig Steady64() {
  SimConfig c = PaperScale64();
  c.disk_sched = server::DiskSchedPolicy::kElevator;
  c.prefetch = server::PrefetchPolicy::kFifo;
  c.server_memory_bytes = 2 * hw::kGiB;
  c.terminals = 700;
  return c;
}

// perfbench's rt_overload64 workload shape.
SimConfig RtOverload64() {
  SimConfig c = PaperScale64();
  c.disk_sched = server::DiskSchedPolicy::kRealTime;
  c.realtime_classes = 3;
  c.realtime_spacing_sec = 4.0;
  c.prefetch = server::PrefetchPolicy::kDelayed;
  c.max_advance_prefetch_sec = 8.0;
  c.server_memory_bytes = 512 * hw::kMiB;
  c.terminals = 850;
  return c;
}

// The real-time base of perfbench's search16_grid workload.
SimConfig Search16() {
  SimConfig c;
  c.seed = 1;
  c.start_window_sec = 20.0;
  c.warmup_seconds = 30.0;
  c.measure_seconds = 30.0;
  c.replacement = server::ReplacementPolicy::kLovePrefetch;
  c.terminal_memory_bytes = 2048 * hw::kKiB;
  c.server_memory_bytes = 512 * hw::kMiB;
  c.disk_sched = server::DiskSchedPolicy::kRealTime;
  c.realtime_classes = 3;
  c.realtime_spacing_sec = 4.0;
  c.prefetch = server::PrefetchPolicy::kDelayed;
  c.max_advance_prefetch_sec = 8.0;
  return c;
}

SimConfig ReplicatedWithFaultScript() {
  SimConfig c;
  c.placement = VideoPlacement::kReplicatedStriped;
  c.replica_count = 2;
  c.fault_plan.script = {{30.0, fault::FaultKind::kDiskFail, 3, 1.0},
                         {40.0, fault::FaultKind::kDiskLimpBegin, 5, 3.5},
                         {60.0, fault::FaultKind::kNodeFail, 1, 1.0},
                         {90.0, fault::FaultKind::kDiskRecover, 3, 1.0}};
  c.fault_plan.disk_mtbf_sec = 900.0;
  c.seed = 7;
  return c;
}

// Sharing, proxy tier, admission, retry and rebuild all on.
SimConfig EverythingOn() {
  SimConfig c;
  c.placement = VideoPlacement::kReplicatedStriped;
  c.server_memory_bytes = 512 * hw::kMiB;
  c.fault_plan.script = {{20.0, fault::FaultKind::kDiskFail, 2, 1.0},
                         {45.0, fault::FaultKind::kDiskRecover, 2, 1.0}};
  c.piggyback_window_sec = 30.0;
  c.patch_window_sec = 60.0;
  c.prefix_cache_fraction = 0.2;
  c.proxy_nodes = 2;
  c.proxy_cache_pages = 128;
  c.proxy_policy = proxy::ProxyPolicy::kRankZipf;
  c.admission_policy = AdmissionPolicy::kMeasuredHeadroom;
  c.admission_headroom = 0.9;
  c.request_retry_budget = 2;
  c.rebuild_mbps = 40.0;
  c.pause_enabled = true;
  c.search_enabled = true;
  c.seed = 11;
  return c;
}

struct Golden {
  const char* name;
  SimConfig config;
  const char* digest;  // ConfigDigest before the knob table, in hex
};

std::vector<Golden> Goldens() {
  return {{"default", SimConfig{}, "c46f9dbfe911c54d"},
          {"steady64", Steady64(), "0ba6bceb0b7a81e6"},
          {"rt_overload64", RtOverload64(), "00e105cfdbfb3f63"},
          {"search16", Search16(), "4ea99b31cef2da0e"},
          {"replicated_faults", ReplicatedWithFaultScript(),
           "7200d22903043928"},
          {"everything_on", EverythingOn(), "4ce25e827f7fbb13"}};
}

std::string Hex(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

// FormatConfig's tokens as key -> value, in order.
std::vector<std::pair<std::string, std::string>> Tokens(
    const std::string& formatted) {
  std::vector<std::pair<std::string, std::string>> tokens;
  std::istringstream in(formatted);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    tokens.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return tokens;
}

// Applies every FormatConfig token of `from` to a default config.
SimConfig Replay(const SimConfig& from) {
  SimConfig config;
  for (const auto& [key, value] : Tokens(FormatConfig(from))) {
    EXPECT_EQ(SetConfigKnob(&config, key, value), "") << key << "=" << value;
  }
  return config;
}

// The kind of value a knob holds.
template <typename Visit>
auto VisitType(const ConfigKnob& knob, Visit visit) {
  return std::visit(
      [&](auto get) {
        using T = std::remove_cvref_t<decltype(get(SimConfig{}))>;
        return visit(static_cast<T*>(nullptr));
      },
      knob.get);
}

TEST(ConfigKnobTest, DigestMatchesCommittedGoldens) {
  for (const Golden& golden : Goldens()) {
    EXPECT_EQ(golden.config.Validate(), "") << golden.name;
    EXPECT_EQ(Hex(ConfigDigest(golden.config)), golden.digest)
        << golden.name;
  }
}

TEST(ConfigKnobTest, EveryKnobChangedAloneChangesTheDigest) {
  const SimConfig base = EverythingOn();
  const std::uint64_t base_digest = ConfigDigest(base);
  std::map<std::string, std::string> values;
  for (const auto& [key, value] : Tokens(FormatConfig(base))) {
    values[key] = value;
  }
  ASSERT_EQ(values.size(), std::size(kConfigKnobs));
  for (const ConfigKnob& knob : kConfigKnobs) {
    const std::string& current = values.at(knob.key);
    std::string changed = VisitType(knob, [&](auto* type) -> std::string {
      using T = std::remove_pointer_t<decltype(type)>;
      if constexpr (std::is_same_v<T, std::vector<fault::FaultAction>>) {
        return current + ",100:node_recover:1:1";
      } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
        for (std::size_t i = 0; i < knob.names.size(); ++i) {
          if (current == knob.names[i]) {
            return knob.names[(i + 1) % knob.names.size()];
          }
        }
        return "";
      } else if constexpr (std::is_floating_point_v<T>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::stod(current) * 2.0 + 1.0);
        return buf;
      } else {
        return std::to_string(std::stoll(current) + 1);
      }
    });
    SimConfig config = base;
    ASSERT_EQ(SetConfigKnob(&config, knob.key, changed), "") << knob.key;
    EXPECT_NE(ConfigDigest(config), base_digest)
        << knob.key << ": " << current << " -> " << changed;
  }
}

TEST(ConfigKnobTest, FormatThenSetRoundTripsTheGoldens) {
  for (const Golden& golden : Goldens()) {
    const SimConfig replayed = Replay(golden.config);
    EXPECT_EQ(Hex(ConfigDigest(replayed)), golden.digest) << golden.name;
    EXPECT_EQ(FormatConfig(replayed), FormatConfig(golden.config))
        << golden.name;
  }
}

TEST(ConfigKnobTest, FormatWritesEveryKnobOnceInTableOrder) {
  const auto tokens = Tokens(FormatConfig(ReplicatedWithFaultScript()));
  ASSERT_EQ(tokens.size(), std::size(kConfigKnobs));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].first, kConfigKnobs[i].key);
  }
  const std::string formatted = FormatConfig(ReplicatedWithFaultScript());
  EXPECT_NE(formatted.find(" fault_plan.script=30:disk_fail:3:1,"
                           "40:disk_limp_begin:5:3.5,60:node_fail:1:1,"
                           "90:disk_recover:3:1 "),
            std::string::npos);
  EXPECT_NE(formatted.find(" placement=replicated-striped "),
            std::string::npos);
  EXPECT_NE(FormatConfig(SimConfig{}).find(" fault_plan.script= "),
            std::string::npos);
  EXPECT_NE(FormatConfig(SimConfig{}).find(" random_initial_position=true "),
            std::string::npos);
}

TEST(ConfigKnobTest, RejectsMalformedInputAndLeavesTheConfigAlone) {
  const std::pair<const char*, const char*> bad[] = {
      {"no_such_knob", "1"},
      {"disk.no_such_member", "1"},
      {"", "1"},
      {"terminals", ""},
      {"terminals", "12x"},
      {"terminals", " 12"},
      {"terminals", "+12"},
      {"terminals", "1.5"},
      {"terminals", "3000000000"},  // beyond int
      {"seed", "-1"},
      {"cpu_mips", "forty"},
      {"cpu_mips", "40 "},
      {"cpu_mips", "0x10"},
      {"cpu_mips", "nan"},
      {"cpu_mips", "inf"},
      {"cpu_mips", "1e999"},
      {"disk_sched", "Elevator"},
      {"disk_sched", "2"},
      {"pause_enabled", "1"},
      {"fault_plan.script", "10:disk_fail:0"},
      {"fault_plan.script", "10:disk_fail:0:1:2"},
      {"fault_plan.script", "10:meltdown:0:1"},
      {"fault_plan.script", "10:disk_fail:0:1,"},
      {"fault_plan.script", "ten:disk_fail:0:1"},
  };
  const SimConfig base = EverythingOn();
  for (const auto& [key, value] : bad) {
    SimConfig config = base;
    EXPECT_NE(SetConfigKnob(&config, key, value), "")
        << key << "=" << value;
    EXPECT_EQ(FormatConfig(config), FormatConfig(base)) << key;
  }
  SimConfig config;
  EXPECT_EQ(SetConfigKnob(&config, "no_such_knob", "1"),
            "unknown config knob 'no_such_knob'");
  EXPECT_EQ(SetConfigKnob(&config, "disk_sched", "real-time"), "");
  EXPECT_EQ(config.disk_sched, server::DiskSchedPolicy::kRealTime);
  EXPECT_EQ(SetConfigKnob(&config, "disk.cache_contexts", "-3"), "");
  EXPECT_EQ(config.disk.cache_contexts, -3);
  EXPECT_EQ(SetConfigKnob(&config, "fault_plan.script", ""), "");
  EXPECT_TRUE(config.fault_plan.script.empty());
}

TEST(ConfigKnobTest, BoundMessagesNameTheKey) {
  const std::pair<std::pair<const char*, const char*>, const char*> cases[] =
      {{{"num_nodes", "0"}, "num_nodes must be positive"},
       {{"zipf_z", "-0.5"}, "zipf_z must be non-negative"},
       {{"prefix_cache_fraction", "0.75"},
        "prefix_cache_fraction must be in [0, 0.5]"},
       {{"measure_seconds", "0"}, "measure_seconds must be positive"}};
  for (const auto& [knob, message] : cases) {
    SimConfig config;
    ASSERT_EQ(SetConfigKnob(&config, knob.first, knob.second), "");
    EXPECT_EQ(config.Validate(), message);
  }
}

TEST(ConfigKnobTest, RunReportCarriesReplayableKnobs) {
  SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.terminals = 10;
  config.server_memory_bytes = 64 * hw::kMiB;
  config.start_window_sec = 2.0;
  config.warmup_seconds = 3.0;
  config.measure_seconds = 3.0;
  std::string knobs;
  SetRunObserver(
      [&knobs](const RunProfile& profile) { knobs = profile.config_knobs; });
  RunSimulation(config);
  SetRunObserver(nullptr);
  EXPECT_EQ(knobs, FormatConfig(config));

  RunReport report;
  report.config_knobs = knobs;
  std::ostringstream out;
  WriteRunReportJson(out, report);
  EXPECT_NE(out.str().find("\"config_knobs\":\"num_nodes=2 "),
            std::string::npos);
  EXPECT_EQ(ConfigDigest(Replay(config)), ConfigDigest(config));
}

// --- Validate() against the rules it had before the knob table ---

// SimConfig::Validate() as it was written before the knob table, frozen
// as the reference: the table-driven version must accept and reject
// exactly the same configurations.
std::string ReferenceValidate(const SimConfig& c) {
  if (c.num_nodes <= 0) return "num_nodes must be positive";
  if (c.disks_per_node <= 0) return "disks_per_node must be positive";
  if (c.cpu_mips <= 0.0) return "cpu_mips must be positive";
  if (c.video_seconds <= 0.0) return "video_seconds must be positive";
  if (std::string error = mpeg::FrameModel::ParamsError(c.mpeg);
      !error.empty()) {
    return error;
  }
  if (c.videos_per_disk <= 0) return "videos_per_disk must be positive";
  if (c.zipf_z < 0.0) return "zipf_z must be non-negative";
  if (c.stripe_bytes <= 0) return "stripe_bytes must be positive";
  if (c.terminals <= 0) return "terminals must be positive";
  // Added after the freeze with the video library's block-start index.
  if (!(c.estimated_block_index_entries() <= kMaxBlockIndexEntries)) {
    return "block index too large";
  }
  if (c.terminal_memory_bytes < c.stripe_bytes) {
    return "terminal memory must hold at least one stripe block";
  }
  if (c.pool_pages_per_node() < 2) {
    return "server memory must hold at least two pages per node";
  }
  if (c.gss_groups <= 0) return "gss_groups must be positive";
  if (c.realtime_classes <= 0) return "realtime_classes must be positive";
  if (c.realtime_spacing_sec <= 0.0) {
    return "realtime_spacing_sec must be positive";
  }
  if (c.prefetch == server::PrefetchPolicy::kDelayed &&
      c.max_advance_prefetch_sec <= 0.0) {
    return "max_advance_prefetch_sec must be positive for delayed "
           "prefetching";
  }
  if (c.placement == VideoPlacement::kNonStriped &&
      c.num_videos() % c.total_disks() != 0) {
    return "non-striped placement needs videos divisible by disks";
  }
  if (c.placement == VideoPlacement::kReplicatedStriped) {
    if (c.replica_count < 2) {
      return "replicated placement needs replica_count >= 2";
    }
    if (c.replica_count > c.num_nodes) {
      return "replica_count cannot exceed num_nodes (copies of a block "
             "must land on distinct nodes)";
    }
  }
  if (c.piggyback_window_sec < 0.0) {
    return "piggyback_window_sec must be non-negative";
  }
  if (c.patch_window_sec < 0.0) {
    return "patch_window_sec must be non-negative";
  }
  if (c.patch_window_sec >= c.video_seconds) {
    return "patch_window_sec must be shorter than the video";
  }
  if (c.prefix_cache_fraction < 0.0 || c.prefix_cache_fraction > 0.5) {
    return "prefix_cache_fraction must be in [0, 0.5] (pinned pages must "
           "leave the pool eviction headroom)";
  }
  if (c.prefix_cache_fraction > 0.0 && c.prefix_recompute_sec <= 0.0) {
    return "prefix_recompute_sec must be positive when the prefix cache "
           "is enabled";
  }
  if (c.proxy_nodes < 0) return "proxy_nodes must be non-negative";
  if (c.proxy_nodes > 0) {
    if (c.proxy_cache_pages <= 0) {
      return "proxy_cache_pages must be positive when the proxy tier is "
             "enabled";
    }
    if (c.proxy_policy != proxy::ProxyPolicy::kLru &&
        c.proxy_recompute_sec <= 0.0) {
      return "proxy_recompute_sec must be positive for popularity-aware "
             "proxy policies";
    }
  }
  if (c.admission_policy != AdmissionPolicy::kOff) {
    if (c.admission_headroom <= 0.0 || c.admission_headroom > 1.0) {
      return "admission_headroom must be in (0, 1]";
    }
    if (c.admission_defer_sec <= 0.0) {
      return "admission_defer_sec must be positive when admission "
             "control is enabled";
    }
    if (c.admission_max_defers < 0) {
      return "admission_max_defers must be non-negative";
    }
  }
  if (c.request_retry_budget < 0) {
    return "request_retry_budget must be non-negative";
  }
  if (c.request_retry_budget > 0) {
    if (c.retry_min_timeout_sec <= 0.0) {
      return "retry_min_timeout_sec must be positive when retries are "
             "enabled";
    }
    if (c.retry_backoff_base_sec <= 0.0) {
      return "retry_backoff_base_sec must be positive when retries are "
             "enabled";
    }
  }
  if (c.rebuild_mbps < 0.0) return "rebuild_mbps must be non-negative";
  if (c.warmup_seconds < c.start_window_sec) {
    return "warmup must cover the terminal start window";
  }
  if (c.measure_seconds <= 0.0) return "measure_seconds must be positive";
  std::string fault_error =
      c.fault_plan.Validate(c.num_nodes, c.total_disks());
  if (!fault_error.empty()) return fault_error;
  return "";
}

std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Boundary values for one knob: 0, -1, 1, its current value, and each
// bound it or a hand-written rule uses, each +/- 1 ulp (+/- 1 for
// integers). Values a knob cannot hold (a negative seed) are dropped by
// SetConfigKnob.
std::vector<std::string> BoundaryValues(const ConfigKnob& knob,
                                        const std::string& current) {
  return VisitType(knob, [&](auto* type) {
    using T = std::remove_pointer_t<decltype(type)>;
    std::vector<std::string> values;
    if constexpr (std::is_same_v<T, std::vector<fault::FaultAction>>) {
      values = {"", "10:disk_fail:0:1", "-1:disk_fail:0:1",
                "10:disk_fail:15:1", "10:disk_fail:16:1",
                "10:node_fail:3:1",  "10:node_fail:4:1",
                "10:disk_limp_begin:2:0.99999999999999989",
                "10:disk_limp_begin:2:1"};
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
      values.assign(knob.names.begin(), knob.names.end());
    } else {
      std::vector<double> anchors = {0.0, -1.0, 1.0, 2.0, 0.5, 0.85};
      if (knob.bound.kind == KnobBound::kRange) {
        anchors.push_back(knob.bound.lo);
        anchors.push_back(knob.bound.hi);
      }
      anchors.push_back(std::stod(current));
      for (double anchor : anchors) {
        if constexpr (std::is_floating_point_v<T>) {
          for (double v : {anchor, std::nextafter(anchor, -1e300),
                           std::nextafter(anchor, 1e300)}) {
            values.push_back(FormatDouble(v));
          }
        } else {
          const long long base = std::llround(anchor);
          for (long long v : {base - 1, base, base + 1}) {
            values.push_back(std::to_string(v));
          }
        }
      }
    }
    return values;
  });
}

// Base configurations that switch on every conditional rule's branch.
std::vector<SimConfig> CorpusBases() {
  std::vector<SimConfig> bases;
  for (const Golden& golden : Goldens()) bases.push_back(golden.config);
  SimConfig c;
  c.placement = VideoPlacement::kNonStriped;
  bases.push_back(c);
  c = SimConfig{};
  c.admission_policy = AdmissionPolicy::kStaticReservation;
  c.proxy_nodes = 1;
  c.proxy_policy = proxy::ProxyPolicy::kAdaptivePrefix;
  c.request_retry_budget = 1;
  c.prefix_cache_fraction = 0.5;
  bases.push_back(c);
  c = SimConfig{};
  c.fault_plan.limp_mtbf_sec = 100.0;
  c.fault_plan.node_mtbf_sec = 100.0;
  c.prefetch = server::PrefetchPolicy::kDelayed;
  bases.push_back(c);
  return bases;
}

struct Mutation {
  const char* key;
  std::string value;
};

std::vector<Mutation> AllMutations() {
  const std::map<std::string, std::string> defaults = [] {
    std::map<std::string, std::string> values;
    for (const auto& [key, value] : Tokens(FormatConfig(SimConfig{}))) {
      values[key] = value;
    }
    return values;
  }();
  std::vector<Mutation> mutations;
  for (const ConfigKnob& knob : kConfigKnobs) {
    for (std::string& value : BoundaryValues(knob, defaults.at(knob.key))) {
      mutations.push_back({knob.key, std::move(value)});
    }
  }
  return mutations;
}

TEST(ConfigKnobTest, ValidateMatchesTheFrozenReferenceOnBoundaryCorpus) {
  const std::vector<SimConfig> bases = CorpusBases();
  const std::vector<Mutation> mutations = AllMutations();
  int checked = 0;
  int rejected = 0;
  auto check = [&](const SimConfig& config, const std::string& what) {
    const bool reference_ok = ReferenceValidate(config).empty();
    const std::string error = config.Validate();
    EXPECT_EQ(error.empty(), reference_ok)
        << what << ": now '" << error << "', reference '"
        << ReferenceValidate(config) << "'";
    ++checked;
    if (!reference_ok) ++rejected;
  };
  // Every single-knob mutation of every base.
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (const Mutation& m : mutations) {
      SimConfig config = bases[b];
      if (!SetConfigKnob(&config, m.key, m.value).empty()) continue;
      check(config, "base " + std::to_string(b) + " " + m.key + "=" +
                        m.value);
    }
  }
  // Seeded pairs of mutations.
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<std::size_t> pick_base(0, bases.size() - 1);
  std::uniform_int_distribution<std::size_t> pick(0, mutations.size() - 1);
  for (int i = 0; i < 40000; ++i) {
    const std::size_t b = pick_base(rng);
    const Mutation& m1 = mutations[pick(rng)];
    const Mutation& m2 = mutations[pick(rng)];
    SimConfig config = bases[b];
    if (!SetConfigKnob(&config, m1.key, m1.value).empty() ||
        !SetConfigKnob(&config, m2.key, m2.value).empty()) {
      continue;
    }
    check(config, "base " + std::to_string(b) + " " + m1.key + "=" +
                      m1.value + " " + m2.key + "=" + m2.value);
  }
  // The corpus exercises both outcomes in earnest.
  EXPECT_GT(checked, 40000);
  EXPECT_GT(rejected, checked / 10);
  EXPECT_LT(rejected, checked * 9 / 10);
}

}  // namespace
}  // namespace spiffi::vod
