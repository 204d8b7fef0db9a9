// Fault scenario configuration.
//
// A FaultPlan describes what goes wrong during a run: a deterministic
// script of timed actions (disk fail/recover, node crash/restart,
// slow-disk "limp" episodes) plus optional stochastic fault processes
// whose inter-arrival and repair times are exponential. The plan is
// plain data — it lives inside vod::SimConfig so the parallel runner
// can replicate fault scenarios across seeds — and is interpreted by
// fault::FaultInjector. An empty plan (the default) disables the fault
// subsystem entirely; runs are then bit-identical to a build without
// it.

#ifndef SPIFFI_FAULT_PLAN_H_
#define SPIFFI_FAULT_PLAN_H_

#include <string>
#include <vector>

namespace spiffi::fault {

enum class FaultKind {
  kDiskFail,       // target = global disk id
  kDiskRecover,    // target = global disk id
  kNodeFail,       // target = node id (pauses every disk on the node)
  kNodeRecover,    // target = node id
  kDiskLimpBegin,  // target = global disk id; factor = service-time scale
  kDiskLimpEnd,    // target = global disk id
};
// Names in enumerator order.
inline constexpr const char* kFaultKindNames[] = {
    "disk_fail", "disk_recover",    "node_fail",
    "node_recover", "disk_limp_begin", "disk_limp_end"};

const char* FaultKindName(FaultKind kind);

// One scripted transition at an absolute simulated time.
struct FaultAction {
  double time = 0.0;
  FaultKind kind = FaultKind::kDiskFail;
  int target = 0;
  double factor = 1.0;  // kDiskLimpBegin only: service-time multiplier
};

struct FaultPlan {
  std::vector<FaultAction> script;

  // Stochastic fault processes, all disabled at 0. MTBF values are per
  // component (each disk / node draws from its own stream, so adding a
  // disk never perturbs another disk's fault times).
  double disk_mtbf_sec = 0.0;
  double disk_repair_mean_sec = 60.0;
  double node_mtbf_sec = 0.0;
  double node_repair_mean_sec = 120.0;
  double limp_mtbf_sec = 0.0;
  double limp_duration_mean_sec = 30.0;
  double limp_factor = 4.0;

  // Degraded-read tuning consumed by server::Node. A request whose
  // local copy is down is forwarded to a surviving replica at most
  // `reroute_hop_budget` times; with no live replica it re-checks for
  // recovery every `recheck_sec` (sooner when its deadline is nearer).
  int reroute_hop_budget = 2;
  double recheck_sec = 0.25;

  // True if the plan injects any fault at all; when false the
  // simulation builds no fault state and the run is untouched.
  bool enabled() const {
    return !script.empty() || disk_mtbf_sec > 0.0 || node_mtbf_sec > 0.0 ||
           limp_mtbf_sec > 0.0;
  }

  // Empty string if valid, else a description of the first problem.
  // Targets are checked against the given topology.
  std::string Validate(int num_nodes, int total_disks) const;

  // One-line human summary ("2 scripted actions, disk MTBF 300s, ...").
  std::string Describe() const;
};

}  // namespace spiffi::fault

#endif  // SPIFFI_FAULT_PLAN_H_
