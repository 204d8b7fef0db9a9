#include "vod/config.h"

#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "vod/config_knobs.h"
#include "vod/report.h"

namespace spiffi::vod {
namespace {

TEST(SimConfigTest, DefaultsMatchPaperBaseConfiguration) {
  SimConfig config;
  EXPECT_EQ(config.num_nodes, 4);
  EXPECT_EQ(config.disks_per_node, 4);
  EXPECT_EQ(config.total_disks(), 16);
  EXPECT_EQ(config.num_videos(), 64);
  EXPECT_EQ(config.stripe_bytes, 512 * 1024);
  EXPECT_EQ(config.server_memory_bytes, 4LL * 1024 * 1024 * 1024);
  EXPECT_EQ(config.terminal_memory_bytes, 2 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(config.video_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(config.zipf_z, 1.0);
  EXPECT_DOUBLE_EQ(config.cpu_mips, 40.0);
  EXPECT_TRUE(config.Validate().empty());
}

TEST(SimConfigTest, PoolPagesPerNode) {
  SimConfig config;
  // 4 GB / 4 nodes / 512 KB = 2048 pages per node.
  EXPECT_EQ(config.pool_pages_per_node(), 2048);
}

TEST(SimConfigTest, RejectsBadValues) {
  {
    SimConfig c;
    c.num_nodes = 0;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.terminal_memory_bytes = c.stripe_bytes - 1;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.server_memory_bytes = c.stripe_bytes;  // < 2 pages per node
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.warmup_seconds = c.start_window_sec - 1.0;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.videos_per_disk = 0;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    // I-frames averaging ~60 MB: sizes no longer fit the frame model.
    SimConfig c;
    c.mpeg.bits_per_second *= 1200.0;
    EXPECT_EQ(c.Validate(), mpeg::FrameModel::ParamsError(c.mpeg));
    EXPECT_FALSE(c.Validate().empty());
  }
}

TEST(SimConfigTest, RejectsNonPositiveCounts) {
  for (int bad : {0, -1, -100}) {
    {
      SimConfig c;
      c.num_nodes = bad;
      EXPECT_FALSE(c.Validate().empty()) << "num_nodes=" << bad;
    }
    {
      SimConfig c;
      c.disks_per_node = bad;
      EXPECT_FALSE(c.Validate().empty()) << "disks_per_node=" << bad;
    }
    {
      SimConfig c;
      c.terminals = bad;
      EXPECT_FALSE(c.Validate().empty()) << "terminals=" << bad;
    }
  }
}

TEST(SimConfigTest, RejectsNaNInEveryBoundedDouble) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Every double with a bound in the knob table.
  int bounded = 0;
  for (const ConfigKnob& knob : kConfigKnobs) {
    const auto* get = std::get_if<ConfigKnob::Ref<double>>(&knob.get);
    if (get == nullptr || knob.bound.kind == KnobBound::kNone) continue;
    SimConfig c;
    const_cast<double&>((*get)(c)) = kNaN;
    EXPECT_FALSE(c.Validate().empty()) << knob.key << "=nan";
    ++bounded;
  }
  EXPECT_GE(bounded, 9);
  // Every double a hand-written rule bounds, with the rule switched on.
  const std::vector<std::pair<const char*, std::function<void(SimConfig&)>>>
      rules = {
          {"max_advance_prefetch_sec",
           [](SimConfig& c) {
             c.prefetch = server::PrefetchPolicy::kDelayed;
             c.max_advance_prefetch_sec = kNaN;
           }},
          {"prefix_recompute_sec",
           [](SimConfig& c) {
             c.prefix_cache_fraction = 0.25;
             c.prefix_recompute_sec = kNaN;
           }},
          {"proxy_recompute_sec",
           [](SimConfig& c) {
             c.proxy_nodes = 1;
             c.proxy_policy = proxy::ProxyPolicy::kRankZipf;
             c.proxy_recompute_sec = kNaN;
           }},
          {"admission_headroom",
           [](SimConfig& c) {
             c.admission_policy = AdmissionPolicy::kStaticReservation;
             c.admission_headroom = kNaN;
           }},
          {"admission_defer_sec",
           [](SimConfig& c) {
             c.admission_policy = AdmissionPolicy::kStaticReservation;
             c.admission_defer_sec = kNaN;
           }},
          {"retry_min_timeout_sec",
           [](SimConfig& c) {
             c.request_retry_budget = 1;
             c.retry_min_timeout_sec = kNaN;
           }},
          {"retry_backoff_base_sec",
           [](SimConfig& c) {
             c.request_retry_budget = 1;
             c.retry_backoff_base_sec = kNaN;
           }},
          {"warmup_seconds", [](SimConfig& c) { c.warmup_seconds = kNaN; }},
          {"start_window_sec",
           [](SimConfig& c) { c.start_window_sec = kNaN; }},
          {"fault_plan.disk_mtbf_sec",
           [](SimConfig& c) { c.fault_plan.disk_mtbf_sec = kNaN; }},
          {"fault_plan.disk_repair_mean_sec",
           [](SimConfig& c) {
             c.fault_plan.disk_mtbf_sec = 100.0;
             c.fault_plan.disk_repair_mean_sec = kNaN;
           }},
          {"fault_plan.node_repair_mean_sec",
           [](SimConfig& c) {
             c.fault_plan.node_mtbf_sec = 100.0;
             c.fault_plan.node_repair_mean_sec = kNaN;
           }},
          {"fault_plan.limp_duration_mean_sec",
           [](SimConfig& c) {
             c.fault_plan.limp_mtbf_sec = 100.0;
             c.fault_plan.limp_duration_mean_sec = kNaN;
           }},
          {"fault_plan.limp_factor",
           [](SimConfig& c) {
             c.fault_plan.limp_mtbf_sec = 100.0;
             c.fault_plan.limp_factor = kNaN;
           }},
          {"fault_plan.recheck_sec",
           [](SimConfig& c) { c.fault_plan.recheck_sec = kNaN; }},
          {"fault_plan.script time",
           [](SimConfig& c) {
             c.fault_plan.script = {
                 {kNaN, fault::FaultKind::kDiskFail, 0, 1.0}};
           }},
      };
  for (const auto& [name, set] : rules) {
    SimConfig c;
    set(c);
    EXPECT_FALSE(c.Validate().empty()) << name << "=nan";
  }
}

TEST(SimConfigTest, RejectsOverflowingDerivedCounts) {
  SimConfig c;
  c.num_nodes = 70000;
  c.disks_per_node = 70000;  // 4.9e9 disks
  c.server_memory_bytes = 1000000000000000;
  EXPECT_EQ(c.Validate(), "num_nodes * disks_per_node overflows int");

  c = SimConfig{};
  c.videos_per_disk = 200000000;  // x 16 disks = 3.2e9 videos
  EXPECT_EQ(c.Validate(),
            "videos_per_disk * num_nodes * disks_per_node overflows int");

  // The largest library whose count fits an int passes both overflow
  // checks; only its block index is too large.
  c = SimConfig{};
  c.videos_per_disk = std::numeric_limits<int>::max() / c.total_disks();
  EXPECT_EQ(c.Validate(),
            "the video library's block index would exceed "
            "kMaxBlockIndexEntries; raise stripe_bytes or shrink the "
            "library");
}

TEST(SimConfigTest, RejectsABlockIndexTooLargeToBuild) {
  // The video library keeps one 8-byte block-start entry per block.
  // Paper scale (64 disks, 256 one-hour videos) at 512 KiB is 921,600
  // entries; at 4 KiB it would be 117,964,800 (~0.94 GB).
  SimConfig c;
  c.disks_per_node = 16;
  EXPECT_EQ(c.estimated_block_index_entries(), 921600);
  EXPECT_EQ(c.Validate(), "");
  c.stripe_bytes = 4 * 1024;
  EXPECT_EQ(c.estimated_block_index_entries(), 117964800);
  EXPECT_EQ(c.Validate(),
            "the video library's block index would exceed "
            "kMaxBlockIndexEntries; raise stripe_bytes or shrink the "
            "library");

  // A partial last block counts as a block; the limit itself passes.
  c = SimConfig{};
  c.videos_per_disk = 1;
  c.num_nodes = 1;
  c.disks_per_node = 1;
  c.stripe_bytes = 1024;
  c.server_memory_bytes = 4 * 1024;
  c.video_seconds = (kMaxBlockIndexEntries - 0.5) * 1024 /
                    c.mpeg.bytes_per_second();
  EXPECT_EQ(c.estimated_block_index_entries(), kMaxBlockIndexEntries);
  EXPECT_EQ(c.Validate(), "");
  c.video_seconds = (kMaxBlockIndexEntries + 0.5) * 1024 /
                    c.mpeg.bytes_per_second();
  EXPECT_EQ(c.estimated_block_index_entries(), kMaxBlockIndexEntries + 1);
  EXPECT_NE(c.Validate(), "");
}

TEST(SimConfigTest, ValidatesReplicatedPlacement) {
  SimConfig c;
  c.placement = VideoPlacement::kReplicatedStriped;
  c.replica_count = 2;
  EXPECT_TRUE(c.Validate().empty());
  c.replica_count = 1;  // "replicated" with one copy is plain striping
  EXPECT_FALSE(c.Validate().empty());
  c.replica_count = c.num_nodes + 1;  // copies must land on distinct nodes
  EXPECT_FALSE(c.Validate().empty());
  c.replica_count = c.num_nodes;
  EXPECT_TRUE(c.Validate().empty());
}

TEST(SimConfigTest, ValidatesFaultPlan) {
  {
    SimConfig c;
    c.fault_plan.script.push_back(
        {10.0, fault::FaultKind::kDiskFail, c.total_disks()});
    EXPECT_FALSE(c.Validate().empty());  // disk index out of range
  }
  {
    SimConfig c;
    c.fault_plan.script.push_back({-1.0, fault::FaultKind::kDiskFail, 0});
    EXPECT_FALSE(c.Validate().empty());  // negative time
  }
  {
    SimConfig c;
    c.fault_plan.disk_mtbf_sec = 100.0;
    c.fault_plan.disk_repair_mean_sec = 0.0;
    EXPECT_FALSE(c.Validate().empty());  // repair mean must be positive
  }
  {
    SimConfig c;
    c.fault_plan.script.push_back({10.0, fault::FaultKind::kNodeFail, 1});
    c.fault_plan.disk_mtbf_sec = 500.0;
    EXPECT_TRUE(c.Validate().empty());  // scripted + stochastic is fine
  }
}

TEST(SimConfigTest, RebuildRateIsPartOfTheConfigDigest) {
  SimConfig a;
  SimConfig b = a;
  b.rebuild_mbps = 40.0;
  EXPECT_EQ(ConfigDigest(a), ConfigDigest(SimConfig(a)));
  EXPECT_NE(ConfigDigest(a), ConfigDigest(b));
}

TEST(SimConfigTest, DescribeMentionsFaultsOnlyWhenEnabled) {
  SimConfig c;
  EXPECT_EQ(c.Describe().find("faults"), std::string::npos);
  c.fault_plan.disk_mtbf_sec = 500.0;
  EXPECT_NE(c.Describe().find("faults"), std::string::npos);
  c.placement = VideoPlacement::kReplicatedStriped;
  EXPECT_NE(c.Describe().find("replicated(x2)"), std::string::npos);
}

TEST(SimConfigTest, PrefetchWorkerDefaultsPerScheduler) {
  SimConfig config;
  config.disk_sched = server::DiskSchedPolicy::kElevator;
  EXPECT_EQ(config.effective_prefetch_workers(), 1);
  config.disk_sched = server::DiskSchedPolicy::kRealTime;
  EXPECT_EQ(config.effective_prefetch_workers(), 64);
  config.prefetch_workers = 2;  // explicit override wins
  EXPECT_EQ(config.effective_prefetch_workers(), 2);
}

TEST(SimConfigTest, CalendarReserveCountsPrefetchWorkersOfEveryDisk) {
  // server::Node builds one Prefetcher per disk, each with
  // effective_prefetch_workers() workers, so a real-time config keeps up
  // to 64 prefetch events pending per disk, however few terminals run.
  SimConfig config;
  config.disks_per_node = 16;
  config.terminals = 10;
  config.disk_sched = server::DiskSchedPolicy::kRealTime;
  ASSERT_EQ(config.effective_prefetch_workers(), 64);
  EXPECT_GE(config.expected_peak_events(),
            static_cast<std::size_t>(config.total_disks()) * 64);
}

TEST(SimConfigTest, PrefetchTriggerDefaultsPerScheduler) {
  SimConfig config;
  config.disk_sched = server::DiskSchedPolicy::kElevator;
  EXPECT_EQ(config.effective_prefetch_trigger(),
            server::PrefetchTrigger::kOnMiss);
  config.disk_sched = server::DiskSchedPolicy::kRealTime;
  EXPECT_EQ(config.effective_prefetch_trigger(),
            server::PrefetchTrigger::kOnReference);
  config.prefetch_trigger = SimConfig::TriggerMode::kOnMiss;
  EXPECT_EQ(config.effective_prefetch_trigger(),
            server::PrefetchTrigger::kOnMiss);
}

TEST(SimConfigTest, DescribeMentionsKeyChoices) {
  SimConfig config;
  std::string description = config.Describe();
  EXPECT_NE(description.find("16 disks"), std::string::npos);
  EXPECT_NE(description.find("elevator"), std::string::npos);
  EXPECT_NE(description.find("striped"), std::string::npos);
  EXPECT_NE(description.find("z=1"), std::string::npos);
}

TEST(SimConfigTest, ValidatesStreamSharingKnobs) {
  {
    SimConfig c;
    c.patch_window_sec = -1.0;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.patch_window_sec = c.video_seconds;  // must be < the video
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.prefix_cache_fraction = 0.6;  // must leave eviction headroom
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.prefix_cache_fraction = 0.25;
    c.prefix_recompute_sec = 0.0;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.piggyback_window_sec = 60.0;
    c.patch_window_sec = 45.0;
    c.prefix_cache_fraction = 0.25;
    EXPECT_TRUE(c.Validate().empty());
    EXPECT_TRUE(c.stream_sharing_enabled());
  }
}

TEST(SimConfigTest, DescribeMentionsSharingOnlyWhenEnabled) {
  SimConfig c;
  EXPECT_EQ(c.Describe().find("batch"), std::string::npos);
  EXPECT_EQ(c.Describe().find("patch"), std::string::npos);
  EXPECT_EQ(c.Describe().find("prefix"), std::string::npos);
  EXPECT_FALSE(c.stream_sharing_enabled());
  c.piggyback_window_sec = 60.0;
  c.patch_window_sec = 45.0;
  c.prefix_cache_fraction = 0.25;
  std::string description = c.Describe();
  EXPECT_NE(description.find("batch 60 s"), std::string::npos);
  EXPECT_NE(description.find("patch 45 s"), std::string::npos);
  EXPECT_NE(description.find("prefix 0.25"), std::string::npos);
}

TEST(SimConfigTest, ValidatesResilienceKnobs) {
  {
    SimConfig c;
    c.admission_policy = AdmissionPolicy::kStaticReservation;
    c.admission_headroom = 0.0;  // must be in (0, 1]
    EXPECT_FALSE(c.Validate().empty());
    c.admission_headroom = 1.5;
    EXPECT_FALSE(c.Validate().empty());
    c.admission_headroom = 1.0;
    EXPECT_TRUE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.admission_policy = AdmissionPolicy::kMeasuredHeadroom;
    c.admission_defer_sec = 0.0;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.admission_policy = AdmissionPolicy::kStaticReservation;
    c.admission_max_defers = -1;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    // With admission off, the admission sub-knobs are not interpreted.
    SimConfig c;
    c.admission_headroom = 7.0;
    EXPECT_TRUE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.request_retry_budget = -1;
    EXPECT_FALSE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.request_retry_budget = 2;
    c.retry_min_timeout_sec = 0.0;
    EXPECT_FALSE(c.Validate().empty());
    c.retry_min_timeout_sec = 0.25;
    c.retry_backoff_base_sec = 0.0;
    EXPECT_FALSE(c.Validate().empty());
    c.retry_backoff_base_sec = 0.25;
    EXPECT_TRUE(c.Validate().empty());
  }
  {
    SimConfig c;
    c.rebuild_mbps = -1.0;
    EXPECT_FALSE(c.Validate().empty());
  }
}

TEST(SimConfigTest, DescribeMentionsResilienceOnlyWhenEnabled) {
  SimConfig c;
  EXPECT_EQ(c.Describe().find("admission"), std::string::npos);
  EXPECT_EQ(c.Describe().find("retry"), std::string::npos);
  EXPECT_EQ(c.Describe().find("rebuild"), std::string::npos);
  c.admission_policy = AdmissionPolicy::kStaticReservation;
  c.request_retry_budget = 3;
  c.rebuild_mbps = 40.0;
  std::string description = c.Describe();
  EXPECT_NE(description.find("admission"), std::string::npos);
  EXPECT_NE(description.find("retry x3"), std::string::npos);
  EXPECT_NE(description.find("rebuild"), std::string::npos);
}

TEST(SimConfigTest, ScaleupPreservesVideosPerDisk) {
  SimConfig config;
  config.disks_per_node = 16;  // x4 scaleup keeps 4 CPUs
  EXPECT_EQ(config.total_disks(), 64);
  EXPECT_EQ(config.num_videos(), 256);
}

}  // namespace
}  // namespace spiffi::vod
