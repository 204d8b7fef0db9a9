// Regression lock on SimMetrics collection.
//
// The goldens below are the outputs of the direct collection path —
// loops reading component stats without the metrics registry — for every
// config this file runs, frozen as exact values (doubles in hexfloat)
// when that path was retired in favour of Collect(). Collect() must
// reproduce them bit for bit; never regenerate them from Collect().
// Fields left out of a golden are zero.

#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "vod/metrics_testing.h"
#include "vod/simulation.h"

namespace spiffi::vod {
namespace {

SimConfig SmallConfig() {
  SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 256LL * 1024 * 1024;
  config.terminals = 20;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  return config;
}

const SimMetrics kLightLoad = {
    .terminals = 20,
    .measured_seconds = 0x1.ep+4,
    .avg_disk_utilization = 0x1.5a1f294d3763cp-3,
    .min_disk_utilization = 0x1.52e4a18aa2bc9p-3,
    .max_disk_utilization = 0x1.6509a5dffb9c4p-3,
    .avg_cpu_utilization = 0x1.2ad6b4f4b179ap-8,
    .peak_network_bytes_per_sec = 0x1.800b8p+23,
    .avg_network_bytes_per_sec = 0x1.3c09358888889p+23,
    .buffer_references = 593u,
    .buffer_hits = 443u,
    .buffer_misses = 150u,
    .shared_references = 297u,
    .prefetches_issued = 130u,
    .disk_reads = 281u,
    .avg_disk_service_ms = 0x1.216888937d713p+6,
    .avg_seek_cylinders = 0x1.154453d0a0577p+5,
    .avg_response_ms = 0x1.51ed11c06a5ddp+5,
    .p50_response_ms = 0x1.546a41d0ebe0dp+4,
    .p99_response_ms = 0x1.54a0fbfcd236ap+7,
    .frames_displayed = 17987u,
    .videos_completed = 5u,
    .events_simulated = 30302u,
};

const SimMetrics kOverload = {
    .terminals = 120,
    .measured_seconds = 0x1.ep+4,
    .glitches = 115u,
    .terminals_with_glitches = 51,
    .avg_disk_utilization = 0x1p+0,
    .min_disk_utilization = 0x1p+0,
    .max_disk_utilization = 0x1p+0,
    .avg_cpu_utilization = 0x1.b2170931033a2p-6,
    .peak_network_bytes_per_sec = 0x1.1bbb038p+26,
    .avg_network_bytes_per_sec = 0x1.d14f188888889p+25,
    .buffer_references = 3467u,
    .buffer_hits = 1362u,
    .buffer_attaches = 583u,
    .buffer_misses = 1522u,
    .shared_references = 1352u,
    .prefetches_issued = 86u,
    .disk_reads = 1641u,
    .avg_disk_service_ms = 0x1.247458d47d221p+6,
    .avg_seek_cylinders = 0x1.c095c328b7758p+2,
    .avg_response_ms = 0x1.9ca25c4f4dbf3p+9,
    .p50_response_ms = 0x1.eb9ba48452d7ep+8,
    .p99_response_ms = 0x1.aba65c1ef2821p+11,
    .frames_displayed = 104941u,
    .videos_completed = 29u,
    .events_simulated = 169072u,
};

const SimMetrics kUnderFaults = {
    .terminals = 20,
    .measured_seconds = 0x1.ep+4,
    .avg_disk_utilization = 0x1.bfa5ee846de3dp-3,
    .min_disk_utilization = 0x1.8f56d80013911p-4,
    .max_disk_utilization = 0x1.8f6b02786aaadp-2,
    .avg_cpu_utilization = 0x1.5687847c8b933p-8,
    .peak_network_bytes_per_sec = 0x1.800cp+23,
    .avg_network_bytes_per_sec = 0x1.3c09358888889p+23,
    .buffer_references = 593u,
    .buffer_hits = 395u,
    .buffer_misses = 198u,
    .shared_references = 231u,
    .prefetches_issued = 162u,
    .disk_reads = 361u,
    .avg_disk_service_ms = 0x1.2330393deb95fp+6,
    .avg_seek_cylinders = 0x1.686bca1af286cp+5,
    .avg_response_ms = 0x1.d0c71ef5b3cc3p+5,
    .p50_response_ms = 0x1.546a41d0ebe0dp+4,
    .p99_response_ms = 0x1.502ffdd13eabep+8,
    .frames_displayed = 17979u,
    .videos_completed = 5u,
    .events_simulated = 30542u,
    .faults_injected = 1u,
    .repairs_completed = 1u,
    .mttr_sec = 0x1.ep+3,
    .fault_downtime_sec = 0x1.ep+3,
    .requests_redirected = 73u,
};

const SimMetrics kWithProxyTier = {
    .terminals = 20,
    .measured_seconds = 0x1.ep+4,
    .avg_disk_utilization = 0x1.5ae42726fac6ep-3,
    .min_disk_utilization = 0x1.53259837b3784p-3,
    .max_disk_utilization = 0x1.67dd246f1a2a9p-3,
    .avg_cpu_utilization = 0x1.22ac8b9d10d33p-8,
    .peak_network_bytes_per_sec = 0x1.7f34acp+24,
    .avg_network_bytes_per_sec = 0x1.338068bbbbbbcp+24,
    .buffer_references = 562u,
    .buffer_hits = 412u,
    .buffer_misses = 150u,
    .shared_references = 267u,
    .prefetches_issued = 129u,
    .disk_reads = 281u,
    .avg_disk_service_ms = 0x1.21c1836d9e27cp+6,
    .avg_seek_cylinders = 0x1.147841982470fp+5,
    .avg_response_ms = 0x1.f17f1a2850907p+5,
    .p50_response_ms = 0x1.4ff9fa5237f1cp+5,
    .p99_response_ms = 0x1.97cf28b0cb19fp+7,
    .frames_displayed = 17987u,
    .videos_completed = 5u,
    .events_simulated = 31813u,
    .proxy_references = 592u,
    .proxy_hits = 30u,
    .proxy_forwards = 562u,
    .proxy_bytes_from_cache = 15728640u,
    .avg_proxy_forward_ms = 0x1.5bebb652ca878p+5,
};

const SimMetrics kWithResilience = {
    .terminals = 20,
    .measured_seconds = 0x1.ep+4,
    .avg_disk_utilization = 0x1.1bd38d5054095p-2,
    .min_disk_utilization = 0x1.4597401d5f84dp-3,
    .max_disk_utilization = 0x1.1a5609b9e2e8ep-1,
    .avg_cpu_utilization = 0x1.bab0b22baac66p-8,
    .peak_network_bytes_per_sec = 0x1.10088p+24,
    .avg_network_bytes_per_sec = 0x1.a1e085eeeeeefp+23,
    .buffer_references = 785u,
    .buffer_hits = 529u,
    .buffer_attaches = 9u,
    .buffer_misses = 247u,
    .shared_references = 324u,
    .wasted_prefetches = 7u,
    .prefetches_issued = 210u,
    .disk_reads = 458u,
    .avg_disk_service_ms = 0x1.22ed98dc9895ap+6,
    .avg_seek_cylinders = 0x1.aec6fca57324ep+5,
    .avg_response_ms = 0x1.acc2dea132cbep+5,
    .p50_response_ms = 0x1.546a41d0ebe0dp+4,
    .p99_response_ms = 0x1.033733b36d36bp+8,
    .frames_displayed = 17980u,
    .videos_completed = 5u,
    .events_simulated = 32058u,
    .faults_injected = 1u,
    .repairs_completed = 1u,
    .mttr_sec = 0x1.4p+2,
    .fault_downtime_sec = 0x1.4p+2,
    .requests_redirected = 24u,
    .admission_admits = 5u,
    .rebuild_sec = 0x1.4p+4,
};

// Collect() matches the golden bit for bit, and every kMetricFields
// row's probe reads exactly the value Collect() stored for it.
void ExpectMatchesGolden(const Simulation& simulation,
                         const SimMetrics& golden) {
  const SimMetrics collected = simulation.Collect();
  ExpectBitIdentical(collected, golden);
  for (const MetricField& field : kMetricFields) {
    EXPECT_EQ(simulation.metrics().Value(field.probe),
              FieldValue(collected, field))
        << field.probe;
  }
}

TEST(MetricsRegressionTest, RegistryCollectMatchesDirectLightLoad) {
  Simulation simulation(SmallConfig());
  simulation.Run();
  ExpectMatchesGolden(simulation, kLightLoad);
}

TEST(MetricsRegressionTest, RegistryCollectMatchesDirectOverload) {
  SimConfig config = SmallConfig();
  config.terminals = 120;  // oversubscribed: glitches, late blocks
  Simulation simulation(config);
  SimMetrics metrics = simulation.Run();
  EXPECT_GT(metrics.glitches, 0u);
  ExpectMatchesGolden(simulation, kOverload);
}

// The availability probes, on a run where they are actually non-zero.
TEST(MetricsRegressionTest, RegistryCollectMatchesDirectUnderFaults) {
  SimConfig config = SmallConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.fault_plan.script.push_back(
      {20.0, fault::FaultKind::kDiskFail, 0});
  config.fault_plan.script.push_back(
      {35.0, fault::FaultKind::kDiskRecover, 0});
  Simulation simulation(config);
  SimMetrics metrics = simulation.Run();
  EXPECT_EQ(metrics.faults_injected, 1u);
  ExpectMatchesGolden(simulation, kUnderFaults);
}

// The proxy probes, on a run where the proxy tier is live and actually
// hitting.
TEST(MetricsRegressionTest, RegistryCollectMatchesDirectWithProxyTier) {
  SimConfig config = SmallConfig();
  config.proxy_nodes = 2;
  config.proxy_cache_pages = 64;
  Simulation simulation(config);
  SimMetrics metrics = simulation.Run();
  EXPECT_GT(metrics.proxy_references, 0u);
  ExpectMatchesGolden(simulation, kWithProxyTier);
}

// Feature-off regression: a proxy_nodes == 0 run must be bit-identical
// to the same config built before the proxy tier existed — same event
// count, same metrics — and every proxy metric must read zero.
TEST(MetricsRegressionTest, ZeroProxyRunIsBitIdenticalAndAllZero) {
  SimConfig config = SmallConfig();
  ASSERT_EQ(config.proxy_nodes, 0);
  Simulation a(config);
  SimMetrics ma = a.Run();
  Simulation b(config);
  SimMetrics mb = b.Run();
  ExpectBitIdentical(ma, mb);
  EXPECT_EQ(ma.proxy_references, 0u);
  EXPECT_EQ(ma.proxy_hits, 0u);
  EXPECT_EQ(ma.proxy_attaches, 0u);
  EXPECT_EQ(ma.proxy_forwards, 0u);
  EXPECT_EQ(ma.proxy_bytes_from_cache, 0u);
  EXPECT_EQ(ma.avg_proxy_forward_ms, 0.0);
  EXPECT_EQ(ma.proxy_offload_ratio(), 0.0);
  EXPECT_EQ(a.num_proxies(), 0);
  // The registry schema still carries the proxy keys, reading zero.
  EXPECT_EQ(a.metrics().Value("proxy.references"), 0.0);
  EXPECT_EQ(a.metrics().Value("proxy.pages_in_use"), 0.0);
}

// Feature-off regression: with admission, retry, and rebuild all off
// (the defaults), runs must stay bit-identical and every resilience
// metric must read zero.
TEST(MetricsRegressionTest, ResilienceOffRunIsBitIdenticalAndAllZero) {
  SimConfig config = SmallConfig();
  ASSERT_EQ(config.admission_policy, AdmissionPolicy::kOff);
  ASSERT_EQ(config.request_retry_budget, 0);
  ASSERT_EQ(config.rebuild_mbps, 0.0);
  Simulation a(config);
  SimMetrics ma = a.Run();
  Simulation b(config);
  SimMetrics mb = b.Run();
  ExpectBitIdentical(ma, mb);
  EXPECT_EQ(ma.admission_admits, 0u);
  EXPECT_EQ(ma.admission_rejects, 0u);
  EXPECT_EQ(ma.admission_defers, 0u);
  EXPECT_EQ(ma.failover_readmissions, 0u);
  EXPECT_EQ(ma.request_retries, 0u);
  EXPECT_EQ(ma.retries_exhausted, 0u);
  EXPECT_EQ(ma.session_failovers, 0u);
  EXPECT_EQ(ma.duplicate_replies, 0u);
  EXPECT_EQ(ma.proxy_forward_retries, 0u);
  EXPECT_EQ(ma.proxy_stale_replies, 0u);
  EXPECT_EQ(ma.rebuilds_completed, 0u);
  EXPECT_EQ(ma.rebuild_sec, 0.0);
  EXPECT_EQ(ma.rebuild_bytes, 0u);
  EXPECT_EQ(a.admission(), nullptr);
  // The registry schema still carries the resilience keys, reading zero.
  EXPECT_EQ(a.metrics().Value("admission.admits"), 0.0);
  EXPECT_EQ(a.metrics().Value("terminal.request_retries"), 0.0);
  EXPECT_EQ(a.metrics().Value("fault.rebuilds_completed"), 0.0);
}

// The resilience probes, on a run where admission, retry, and rebuild
// are all live and counting.
TEST(MetricsRegressionTest, RegistryCollectMatchesDirectWithResilience) {
  SimConfig config = SmallConfig();
  config.placement = VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.admission_policy = AdmissionPolicy::kStaticReservation;
  config.request_retry_budget = 2;
  config.rebuild_mbps = 40.0;
  config.fault_plan.script.push_back(
      {20.0, fault::FaultKind::kDiskFail, 0});
  config.fault_plan.script.push_back(
      {25.0, fault::FaultKind::kDiskRecover, 0});
  Simulation simulation(config);
  SimMetrics metrics = simulation.Run();
  EXPECT_GT(metrics.admission_admits, 0u);
  ExpectMatchesGolden(simulation, kWithResilience);
}

// Collect() may be called repeatedly (harnesses sample mid-run); the
// probes are pure reads, so repetition cannot perturb the result.
TEST(MetricsRegressionTest, CollectIsIdempotent) {
  Simulation simulation(SmallConfig());
  simulation.Run();
  SimMetrics first = simulation.Collect();
  simulation.Collect();
  ExpectBitIdentical(first, simulation.Collect());
}

// The derived observability metrics — deadline slack and per-stage
// glitch attribution — exist only in the registry. An oversubscribed
// run must populate them and they must appear in the JSON export.
TEST(MetricsRegressionTest, OverloadExportsSlackAndAttribution) {
  SimConfig config = SmallConfig();
  config.terminals = 120;
  Simulation simulation(config);
  SimMetrics metrics = simulation.Run();
  ASSERT_GT(metrics.glitches, 0u);

  const obs::MetricsRegistry& registry = simulation.metrics();
  EXPECT_GT(registry.Value("terminal.late_blocks"), 0.0);
  EXPECT_GT(
      registry.GetSketch("terminal.deadline_slack_sec_sketch").count(), 0u);
  // Every late block is attributed to exactly one stage.
  double attributed =
      registry.Value("terminal.late_attrib.network") +
      registry.Value("terminal.late_attrib.server_cpu") +
      registry.Value("terminal.late_attrib.disk_queue") +
      registry.Value("terminal.late_attrib.disk_service") +
      registry.Value("terminal.late_attrib.fault");
  EXPECT_EQ(attributed, registry.Value("terminal.late_blocks"));
  // No FaultPlan: the fault stage never dominates, and the availability
  // metrics all read zero.
  EXPECT_EQ(registry.Value("terminal.late_attrib.fault"), 0.0);
  EXPECT_EQ(registry.Value("fault.faults_injected"), 0.0);
  EXPECT_EQ(registry.Value("fault.rerouted_requests"), 0.0);
  // Queue-wait vs service-time breakdown is populated.
  EXPECT_GT(registry.Value("disk.queue_wait_ms.avg"), 0.0);
  EXPECT_GT(registry.Value("disk.service_ms.avg"), 0.0);

  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  for (const char* key :
       {"terminal.deadline_slack_sec_sketch",
        "terminal.deadline_slack_ms.avg",
        "terminal.late_blocks", "terminal.late_attrib.network",
        "terminal.late_attrib.server_cpu",
        "terminal.late_attrib.disk_queue",
        "terminal.late_attrib.disk_service", "terminal.late_attrib.fault",
        "fault.faults_injected", "fault.rerouted_requests",
        "fault.mttr_sec", "disk.queue_wait_ms.avg"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""),
              std::string::npos)
        << "missing from JSON export: " << key;
  }
}

}  // namespace
}  // namespace spiffi::vod
