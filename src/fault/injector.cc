#include "fault/injector.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "sim/check.h"

namespace spiffi::fault {
namespace {

// Calendar token layout: op code in the high bits, target (or script
// index) in the low 32.
enum TokenOp : std::uint64_t {
  kScripted = 0,
  kStochDiskFail = 1,
  kStochDiskRecover = 2,
  kStochNodeFail = 3,
  kStochNodeRecover = 4,
  kStochLimpBegin = 5,
  kStochLimpEnd = 6,
};

constexpr std::uint64_t MakeToken(TokenOp op, std::uint64_t index) {
  return (static_cast<std::uint64_t>(op) << 32) | index;
}

// Child-stream namespaces within the injector's RNG. Disjoint from each
// other for any realistic component count.
constexpr std::uint64_t kDiskStreamBase = 0x10000;
constexpr std::uint64_t kNodeStreamBase = 0x20000;
constexpr std::uint64_t kLimpStreamBase = 0x30000;

}  // namespace

FaultInjector::FaultInjector(sim::Environment* env, const FaultPlan& plan,
                             FaultState* state, sim::Rng rng)
    : env_(env), plan_(plan), state_(state), rng_(rng) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(state != nullptr);
}

void FaultInjector::Start() {
  for (std::size_t i = 0; i < plan_.script.size(); ++i) {
    env_->Schedule(std::max(plan_.script[i].time, env_->now()), this,
                   MakeToken(kScripted, i));
  }
  int disks = state_->total_disks();
  int nodes = state_->num_nodes();
  if (plan_.disk_mtbf_sec > 0.0) {
    disk_rng_.reserve(static_cast<std::size_t>(disks));
    for (int d = 0; d < disks; ++d) {
      disk_rng_.push_back(rng_.Child(kDiskStreamBase + d));
      env_->ScheduleAfter(disk_rng_[d].Exponential(plan_.disk_mtbf_sec),
                          this, MakeToken(kStochDiskFail, d));
    }
  }
  if (plan_.node_mtbf_sec > 0.0) {
    node_rng_.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      node_rng_.push_back(rng_.Child(kNodeStreamBase + n));
      env_->ScheduleAfter(node_rng_[n].Exponential(plan_.node_mtbf_sec),
                          this, MakeToken(kStochNodeFail, n));
    }
  }
  if (plan_.limp_mtbf_sec > 0.0) {
    limp_rng_.reserve(static_cast<std::size_t>(disks));
    for (int d = 0; d < disks; ++d) {
      limp_rng_.push_back(rng_.Child(kLimpStreamBase + d));
      env_->ScheduleAfter(limp_rng_[d].Exponential(plan_.limp_mtbf_sec),
                          this, MakeToken(kStochLimpBegin, d));
    }
  }
  limp_since_.assign(static_cast<std::size_t>(disks), 0.0);
}

void FaultInjector::OnEvent(std::uint64_t token) {
  TokenOp op = static_cast<TokenOp>(token >> 32);
  int index = static_cast<int>(token & 0xffffffffULL);
  switch (op) {
    case kScripted: {
      const FaultAction& action =
          plan_.script[static_cast<std::size_t>(index)];
      Fire(action.kind, action.target, action.factor);
      break;
    }
    case kStochDiskFail:
      Fire(FaultKind::kDiskFail, index, 1.0);
      env_->ScheduleAfter(
          disk_rng_[index].Exponential(plan_.disk_repair_mean_sec), this,
          MakeToken(kStochDiskRecover, index));
      break;
    case kStochDiskRecover:
      Fire(FaultKind::kDiskRecover, index, 1.0);
      env_->ScheduleAfter(
          disk_rng_[index].Exponential(plan_.disk_mtbf_sec), this,
          MakeToken(kStochDiskFail, index));
      break;
    case kStochNodeFail:
      Fire(FaultKind::kNodeFail, index, 1.0);
      env_->ScheduleAfter(
          node_rng_[index].Exponential(plan_.node_repair_mean_sec), this,
          MakeToken(kStochNodeRecover, index));
      break;
    case kStochNodeRecover:
      Fire(FaultKind::kNodeRecover, index, 1.0);
      env_->ScheduleAfter(
          node_rng_[index].Exponential(plan_.node_mtbf_sec), this,
          MakeToken(kStochNodeFail, index));
      break;
    case kStochLimpBegin:
      Fire(FaultKind::kDiskLimpBegin, index, plan_.limp_factor);
      env_->ScheduleAfter(
          limp_rng_[index].Exponential(plan_.limp_duration_mean_sec), this,
          MakeToken(kStochLimpEnd, index));
      break;
    case kStochLimpEnd:
      Fire(FaultKind::kDiskLimpEnd, index, 1.0);
      env_->ScheduleAfter(
          limp_rng_[index].Exponential(plan_.limp_mtbf_sec), this,
          MakeToken(kStochLimpBegin, index));
      break;
  }
}

void FaultInjector::Fire(FaultKind kind, int target, double factor) {
  double now = env_->now();
  bool applied = false;
  // Interval start for the span emitted when an outage/episode closes;
  // must be read before the transition overwrites it.
  double since = now;
  switch (kind) {
    case FaultKind::kDiskFail:
      applied = state_->FailDisk(target, now);
      break;
    case FaultKind::kDiskRecover:
      since = state_->disk_down_since(target);
      applied = state_->RecoverDisk(target, now);
      break;
    case FaultKind::kNodeFail:
      applied = state_->FailNode(target, now);
      break;
    case FaultKind::kNodeRecover:
      since = state_->node_down_since(target);
      applied = state_->RecoverNode(target, now);
      break;
    case FaultKind::kDiskLimpBegin:
      applied = state_->BeginLimp(target, factor, now);
      if (applied) limp_since_[target] = now;
      break;
    case FaultKind::kDiskLimpEnd:
      since = limp_since_[target];
      applied = state_->EndLimp(target, now);
      break;
  }
  ++events_fired_;
  TraceEventMark(kind, target, factor, applied, since);
  if (effect_handler_) {
    FaultEvent event;
    event.kind = kind;
    event.target = target;
    event.factor = factor;
    event.time = now;
    event.applied = applied;
    effect_handler_(event);
  }
}

void FaultInjector::TraceEventMark(FaultKind kind, int target,
                                   double factor, bool applied,
                                   double since) {
  if (env_->tracer() == nullptr) return;
  // Track convention: tid = global disk id for disk events, tid =
  // total_disks + node for node events, so every component gets its own
  // row on the fault track.
  int disks_per_node = state_->disks_per_node();
  switch (kind) {
    case FaultKind::kDiskFail:
    case FaultKind::kDiskRecover:
    case FaultKind::kDiskLimpEnd:
      obs::TraceInstant(
          env_, obs::TraceCategory::kFault, FaultKindName(kind),
          obs::Tracer::kFaultPid, target,
          {{"disk", static_cast<double>(target)},
           {"node", static_cast<double>(target / disks_per_node)}});
      break;
    case FaultKind::kDiskLimpBegin:
      obs::TraceInstant(env_, obs::TraceCategory::kFault,
                        FaultKindName(kind), obs::Tracer::kFaultPid, target,
                        {{"disk", static_cast<double>(target)},
                         {"factor", factor}});
      break;
    case FaultKind::kNodeFail:
    case FaultKind::kNodeRecover:
      obs::TraceInstant(env_, obs::TraceCategory::kFault,
                        FaultKindName(kind), obs::Tracer::kFaultPid,
                        state_->total_disks() + target,
                        {{"node", static_cast<double>(target)}});
      break;
  }
  if (!applied) return;
  // Closed outages and limp episodes also export as spans so the down
  // interval is visible as a block on the fault track.
  switch (kind) {
    case FaultKind::kDiskRecover:
      obs::TraceSpan(env_, obs::TraceCategory::kFault, "disk_down",
                     obs::Tracer::kFaultPid, target, since,
                     {{"disk", static_cast<double>(target)}});
      break;
    case FaultKind::kNodeRecover:
      obs::TraceSpan(env_, obs::TraceCategory::kFault, "node_down",
                     obs::Tracer::kFaultPid,
                     state_->total_disks() + target, since,
                     {{"node", static_cast<double>(target)}});
      break;
    case FaultKind::kDiskLimpEnd:
      obs::TraceSpan(env_, obs::TraceCategory::kFault, "disk_limp",
                     obs::Tracer::kFaultPid, target, since,
                     {{"disk", static_cast<double>(target)}});
      break;
    default:
      break;
  }
}

}  // namespace spiffi::fault
