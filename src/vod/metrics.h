// Aggregated results of one simulation run (measurement window only),
// and the table that declares each of its fields once.

#ifndef SPIFFI_VOD_METRICS_H_
#define SPIFFI_VOD_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <variant>

#include "vod/member_count.h"

namespace spiffi::vod {

struct SimMetrics {
  int terminals = 0;
  double measured_seconds = 0.0;

  // Primary metric inputs.
  std::uint64_t glitches = 0;
  int terminals_with_glitches = 0;

  // Utilizations (fractions in [0, 1]).
  double avg_disk_utilization = 0.0;
  double min_disk_utilization = 0.0;
  double max_disk_utilization = 0.0;
  double avg_cpu_utilization = 0.0;

  // Network demand.
  double peak_network_bytes_per_sec = 0.0;
  double avg_network_bytes_per_sec = 0.0;

  // Buffer pool behaviour (summed over nodes).
  std::uint64_t buffer_references = 0;
  std::uint64_t buffer_hits = 0;       // valid page found
  std::uint64_t buffer_attaches = 0;   // joined an in-flight read
  std::uint64_t buffer_misses = 0;
  std::uint64_t shared_references = 0; // page previously referenced by
                                       // another terminal (Fig 16)
  std::uint64_t wasted_prefetches = 0;
  std::uint64_t prefetches_issued = 0;

  // Disk activity.
  std::uint64_t disk_reads = 0;
  double avg_disk_service_ms = 0.0;
  double avg_seek_cylinders = 0.0;

  // Terminal experience.
  double avg_response_ms = 0.0;  // block request -> arrival
  double p50_response_ms = 0.0;
  double p99_response_ms = 0.0;
  std::uint64_t frames_displayed = 0;
  std::uint64_t videos_completed = 0;

  std::uint64_t events_simulated = 0;

  // Stream sharing (all zero when batching and patching are disabled).
  std::uint64_t share_groups = 0;       // delivery groups formed
  std::uint64_t share_followers = 0;    // terminals that joined at start
  std::uint64_t share_patches = 0;      // late joiners via patch streams
  double share_patch_seconds = 0.0;     // total unicast catch-up footage
  std::uint64_t share_handoffs = 0;     // leader promotions
  std::uint64_t prefix_hits = 0;        // references served by pinned pages
  std::int64_t prefix_pinned_pages = 0; // pinned pages at collection time

  // Proxy tier (all zero when proxy_nodes == 0). Summed over proxies.
  std::uint64_t proxy_references = 0;      // terminal requests at proxies
  std::uint64_t proxy_hits = 0;            // served from a proxy cache
  std::uint64_t proxy_attaches = 0;        // joined an in-flight forward
  std::uint64_t proxy_forwards = 0;        // misses forwarded to origin
  std::uint64_t proxy_bytes_from_cache = 0;  // payload bytes hits saved
  double avg_proxy_forward_ms = 0.0;       // forward -> origin reply

  // Availability (all zero when no FaultPlan is active).
  std::uint64_t faults_injected = 0;    // disk + node fail transitions
  std::uint64_t repairs_completed = 0;
  double mttr_sec = 0.0;                // mean time to repair
  double fault_downtime_sec = 0.0;      // component-seconds down
  std::uint64_t rerouted_requests = 0;  // node-to-node forwards
  std::uint64_t degraded_waits = 0;     // requests parked on dead disks
  std::uint64_t prefetches_skipped_dead = 0;
  std::uint64_t requests_redirected = 0;  // client-side failover sends
  std::uint64_t blocks_rerouted = 0;      // replies that hopped nodes

  // Resilience layer (all zero when admission control, request retry,
  // and rebuild are off).
  std::uint64_t admission_admits = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t admission_defers = 0;
  std::uint64_t failover_readmissions = 0;
  std::uint64_t request_retries = 0;      // duplicate block re-sends
  std::uint64_t retries_exhausted = 0;    // budget ran out, left waiting
  std::uint64_t session_failovers = 0;    // whole-stream migrations
  std::uint64_t duplicate_replies = 0;    // late originals after a retry
  std::uint64_t proxy_forward_retries = 0;
  std::uint64_t proxy_stale_replies = 0;
  std::uint64_t rebuilds_completed = 0;   // full post-repair resyncs
  double rebuild_sec = 0.0;               // disk-seconds spent rebuilding
  std::uint64_t rebuild_bytes = 0;        // replica bytes re-read

  double hit_ratio() const {
    return buffer_references == 0
               ? 0.0
               : static_cast<double>(buffer_hits + buffer_attaches) /
                     static_cast<double>(buffer_references);
  }
  double shared_reference_ratio() const {
    return buffer_references == 0
               ? 0.0
               : static_cast<double>(shared_references) /
                     static_cast<double>(buffer_references);
  }
  // Fraction of proxy-tier traffic the origin cluster never saw
  // (hits + attaches); 0 when the proxy tier is off.
  double proxy_offload_ratio() const {
    return proxy_references == 0
               ? 0.0
               : 1.0 - static_cast<double>(proxy_forwards) /
                           static_cast<double>(proxy_references);
  }
  bool glitch_free() const { return glitches == 0; }
};

// How a field combines across the replications of one capacity probe
// (AggregateReplications), folded in replication order.
enum class Aggregate {
  kFirst,  // taken from the first replication (all agree)
  kSum,    // counters and durations
  kMean,   // averaged rates: summed, then divided by the count
  kMin,
  kMax,    // extremes, and levels sampled at collection time
};

// One SimMetrics field. kMetricFields is the only place a field is
// declared beyond the struct: Simulation::Collect() reads each field
// from its registry probe, AggregateReplications() folds it by its
// rule, and WriteRunReportJson() writes it under its key. A new field
// takes one row here plus the probe that computes it.
struct MetricField {
  using Member =
      std::variant<int SimMetrics::*, std::int64_t SimMetrics::*,
                   std::uint64_t SimMetrics::*, double SimMetrics::*>;
  Member member;
  const char* key;    // run-report key: the member's name
  const char* probe;  // registry name of the probe that computes it
  Aggregate aggregate;
};

#define SPIFFI_METRIC(member, probe, rule) \
  MetricField { &SimMetrics::member, #member, probe, Aggregate::rule }
inline constexpr MetricField kMetricFields[] = {
    SPIFFI_METRIC(terminals, "sim.terminals", kFirst),
    SPIFFI_METRIC(measured_seconds, "sim.measured_seconds", kSum),
    SPIFFI_METRIC(glitches, "terminal.glitches", kSum),
    SPIFFI_METRIC(terminals_with_glitches, "terminal.glitched_terminals",
                  kSum),
    SPIFFI_METRIC(avg_disk_utilization, "disk.utilization.avg", kMean),
    SPIFFI_METRIC(min_disk_utilization, "disk.utilization.min", kMin),
    SPIFFI_METRIC(max_disk_utilization, "disk.utilization.max", kMax),
    SPIFFI_METRIC(avg_cpu_utilization, "cpu.utilization.avg", kMean),
    SPIFFI_METRIC(peak_network_bytes_per_sec, "network.peak_bytes_per_sec",
                  kMax),
    SPIFFI_METRIC(avg_network_bytes_per_sec, "network.avg_bytes_per_sec",
                  kMean),
    SPIFFI_METRIC(buffer_references, "pool.references", kSum),
    SPIFFI_METRIC(buffer_hits, "pool.hits", kSum),
    SPIFFI_METRIC(buffer_attaches, "pool.attaches", kSum),
    SPIFFI_METRIC(buffer_misses, "pool.misses", kSum),
    SPIFFI_METRIC(shared_references, "pool.shared_refs", kSum),
    SPIFFI_METRIC(wasted_prefetches, "pool.wasted_prefetches", kSum),
    SPIFFI_METRIC(prefetches_issued, "prefetch.issued", kSum),
    SPIFFI_METRIC(disk_reads, "disk.reads", kSum),
    SPIFFI_METRIC(avg_disk_service_ms, "disk.service_ms.avg", kMean),
    SPIFFI_METRIC(avg_seek_cylinders, "disk.seek_cylinders.avg", kMean),
    SPIFFI_METRIC(avg_response_ms, "terminal.response_ms.avg", kMean),
    SPIFFI_METRIC(p50_response_ms, "terminal.response_ms.p50", kMean),
    SPIFFI_METRIC(p99_response_ms, "terminal.response_ms.p99", kMean),
    SPIFFI_METRIC(frames_displayed, "terminal.frames_displayed", kSum),
    SPIFFI_METRIC(videos_completed, "terminal.videos_completed", kSum),
    SPIFFI_METRIC(events_simulated, "kernel.events_fired", kSum),
    SPIFFI_METRIC(share_groups, "share.groups_formed", kSum),
    SPIFFI_METRIC(share_followers, "share.followers", kSum),
    SPIFFI_METRIC(share_patches, "share.patches", kSum),
    SPIFFI_METRIC(share_patch_seconds, "share.patch_seconds", kSum),
    SPIFFI_METRIC(share_handoffs, "share.handoffs", kSum),
    SPIFFI_METRIC(prefix_hits, "pool.prefix_hits", kSum),
    SPIFFI_METRIC(prefix_pinned_pages, "pool.pinned_pages", kMax),
    SPIFFI_METRIC(proxy_references, "proxy.references", kSum),
    SPIFFI_METRIC(proxy_hits, "proxy.hits", kSum),
    SPIFFI_METRIC(proxy_attaches, "proxy.attaches", kSum),
    SPIFFI_METRIC(proxy_forwards, "proxy.forwards", kSum),
    SPIFFI_METRIC(proxy_bytes_from_cache, "proxy.bytes_from_cache", kSum),
    SPIFFI_METRIC(avg_proxy_forward_ms, "proxy.forward_ms.avg", kMean),
    SPIFFI_METRIC(faults_injected, "fault.faults_injected", kSum),
    SPIFFI_METRIC(repairs_completed, "fault.repairs_completed", kSum),
    SPIFFI_METRIC(mttr_sec, "fault.mttr_sec", kMean),
    SPIFFI_METRIC(fault_downtime_sec, "fault.downtime_sec", kSum),
    SPIFFI_METRIC(rerouted_requests, "fault.rerouted_requests", kSum),
    SPIFFI_METRIC(degraded_waits, "fault.degraded_waits", kSum),
    SPIFFI_METRIC(prefetches_skipped_dead, "fault.prefetches_skipped_dead",
                  kSum),
    SPIFFI_METRIC(requests_redirected, "fault.requests_redirected", kSum),
    SPIFFI_METRIC(blocks_rerouted, "fault.blocks_rerouted", kSum),
    SPIFFI_METRIC(admission_admits, "admission.admits", kSum),
    SPIFFI_METRIC(admission_rejects, "admission.rejects", kSum),
    SPIFFI_METRIC(admission_defers, "admission.defers", kSum),
    SPIFFI_METRIC(failover_readmissions, "admission.failover_readmissions",
                  kSum),
    SPIFFI_METRIC(request_retries, "terminal.request_retries", kSum),
    SPIFFI_METRIC(retries_exhausted, "terminal.retries_exhausted", kSum),
    SPIFFI_METRIC(session_failovers, "terminal.session_failovers", kSum),
    SPIFFI_METRIC(duplicate_replies, "terminal.duplicate_replies", kSum),
    SPIFFI_METRIC(proxy_forward_retries, "proxy.forward_retries", kSum),
    SPIFFI_METRIC(proxy_stale_replies, "proxy.stale_replies", kSum),
    SPIFFI_METRIC(rebuilds_completed, "fault.rebuilds_completed", kSum),
    SPIFFI_METRIC(rebuild_sec, "fault.rebuild_sec", kSum),
    SPIFFI_METRIC(rebuild_bytes, "fault.rebuild_bytes", kSum),
};
#undef SPIFFI_METRIC

// The field as a double (exact for every count a run can reach).
inline double FieldValue(const SimMetrics& m, const MetricField& field) {
  return std::visit(
      [&m](auto member) { return static_cast<double>(m.*member); },
      field.member);
}

// Stores a registry probe's reading into the field, converting to the
// field's type.
inline void SetFieldValue(SimMetrics& m, const MetricField& field,
                          double value) {
  std::visit(
      [&m, value](auto member) {
        using T = std::remove_reference_t<decltype(m.*member)>;
        m.*member = static_cast<T>(value);
      },
      field.member);
}

namespace metrics_internal {

// No member, report key or probe name appears in two rows; kMean rows
// are doubles (a mean of counts would truncate).
template <std::size_t N>
constexpr bool RowsAreDistinct(const MetricField (&rows)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (rows[i].aggregate == Aggregate::kMean &&
        !std::holds_alternative<double SimMetrics::*>(rows[i].member)) {
      return false;
    }
    for (std::size_t j = i + 1; j < N; ++j) {
      if (rows[i].member == rows[j].member ||
          std::string_view(rows[i].key) == rows[j].key ||
          std::string_view(rows[i].probe) == rows[j].probe) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace metrics_internal

// Every SimMetrics member has exactly one row: as many rows as members,
// and no member in two rows.
static_assert(std::size(kMetricFields) == CountMembers<SimMetrics>(),
              "SimMetrics field count != kMetricFields rows: give each "
              "field one row");
static_assert(metrics_internal::RowsAreDistinct(kMetricFields),
              "kMetricFields has a repeated member, key or probe, or a "
              "kMean row on an integer field");

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_METRICS_H_
