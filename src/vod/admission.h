// Session admission control: the service-envelope gate in front of the
// terminals (ISSUE 9, after the INRIA bounds framing in PAPERS.md).
//
// A stream that is admitted is promised glitch-free service, so the
// controller reserves the stream's steady-state disk bandwidth against
// the cluster's aggregate envelope at session start and releases it when
// the video finishes. When the reservation does not fit — because the
// cluster is full, nodes are down, or a post-repair rebuild is eating
// bandwidth — the session is deferred (retry later) and, after too many
// consecutive deferrals, rejected outright so the terminal backs off for
// a long cooldown instead of hammering the gate.
//
// Two active policies share the bookkeeping:
//   * static-reservation — admit while reserved + new <= headroom *
//     capacity, pure arithmetic over configured rates.
//   * measured-headroom  — additionally consult a live utilization probe
//     (mean disk utilization installed by the Simulation) and defer when
//     the measured load is already at the headroom cap, even if the
//     static books say there is room. Catches envelope violations the
//     static model cannot see (degraded-mode reroutes, rebuild traffic,
//     VCR churn).
//
// Sessions admitted before a node failure are grandfathered: the
// capacity shrink applies to future admissions only, and a failover
// re-admission of an already-admitted session always succeeds (the
// bandwidth is already reserved; only the serving node changed).
//
// The controller is pure deterministic bookkeeping — no events, no
// randomness — so runs stay bit-identical at any --jobs N. This header
// is a leaf (std headers only): client/terminal.h and vod/config.h both
// reach it without cycles.

#ifndef SPIFFI_VOD_ADMISSION_H_
#define SPIFFI_VOD_ADMISSION_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace spiffi::vod {

enum class AdmissionPolicy { kOff, kStaticReservation, kMeasuredHeadroom };
// Names in enumerator order.
inline constexpr const char* kAdmissionPolicyNames[] = {
    "off", "static-reservation", "measured-headroom"};

const char* AdmissionPolicyName(AdmissionPolicy policy);

struct AdmissionParams {
  AdmissionPolicy policy = AdmissionPolicy::kOff;
  int num_nodes = 0;
  // Aggregate sustainable disk read bandwidth of one healthy node
  // (bytes/sec); the cluster envelope is the sum over live nodes.
  double node_bytes_per_sec = 0.0;
  // Steady-state delivery rate one admitted stream reserves (bytes/sec).
  double stream_bytes_per_sec = 0.0;
  // Fraction of the envelope admissions may fill; the rest absorbs seek
  // overhead, prefetch, and degraded-mode reroutes.
  double headroom_fraction = 0.85;
  // Consecutive deferrals of one session before it is rejected.
  int max_defers_before_reject = 8;
};

class AdmissionController {
 public:
  enum class Decision { kAdmit, kDefer, kReject };

  explicit AdmissionController(const AdmissionParams& params);

  // Asks for a session slot. Admitting is idempotent: a session already
  // holding a reservation is re-confirmed without reserving twice.
  Decision TryAdmit(int session);

  // Returns the session's reservation to the pool (no-op if absent).
  void Release(int session);

  // Failover re-admission: the session keeps its reservation and is
  // re-confirmed against the surviving nodes. Always admits sessions
  // that were already admitted (grandfathering); a session that somehow
  // lost its slot goes through the normal gate.
  Decision Readmit(int session);

  // Capacity tracking driven by the fault effect handler.
  void OnNodeDown(int node);
  void OnNodeUp(int node);
  // Bandwidth one post-repair rebuild is currently consuming (0 clears
  // it); the total over all keys is subtracted from the envelope. Keyed
  // by the rebuilding disk (any distinct int works) so concurrent
  // rebuilds — e.g. every disk of a recovered node — accumulate instead
  // of overwriting each other.
  void SetRebuildLoad(int key, double bytes_per_sec);

  // measured-headroom only: returns current utilization in [0, 1];
  // admissions defer while probe() >= headroom_fraction.
  void set_utilization_probe(std::function<double()> probe) {
    probe_ = std::move(probe);
  }

  struct Stats {
    std::int64_t admits = 0;
    std::int64_t rejects = 0;
    std::int64_t defers = 0;
    std::int64_t releases = 0;
    std::int64_t failover_readmissions = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  int active_sessions() const {
    return static_cast<int>(admitted_.size());
  }
  double reserved_bytes_per_sec() const {
    return static_cast<double>(admitted_.size()) *
           params_.stream_bytes_per_sec;
  }
  // Current envelope: live nodes x per-node bandwidth x headroom, minus
  // rebuild traffic. Never negative.
  double capacity_bytes_per_sec() const;

 private:
  bool Fits() const;

  AdmissionParams params_;
  int live_nodes_;
  double rebuild_load_total_ = 0.0;
  std::unordered_map<int, double> rebuild_load_;  // disk -> bytes/sec
  std::unordered_set<int> admitted_;
  std::unordered_map<int, int> defer_streak_;  // session -> consecutive
  std::function<double()> probe_;
  Stats stats_;
};

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_ADMISSION_H_
