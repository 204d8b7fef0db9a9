#include "fault/plan.h"

#include <iterator>
#include <sstream>

namespace spiffi::fault {

const char* FaultKindName(FaultKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kFaultKindNames) ? kFaultKindNames[i] : "unknown";
}

namespace {

bool TargetsDisk(FaultKind kind) {
  return kind == FaultKind::kDiskFail || kind == FaultKind::kDiskRecover ||
         kind == FaultKind::kDiskLimpBegin ||
         kind == FaultKind::kDiskLimpEnd;
}

}  // namespace

std::string FaultPlan::Validate(int num_nodes, int total_disks) const {
  for (std::size_t i = 0; i < script.size(); ++i) {
    const FaultAction& action = script[i];
    std::ostringstream where;
    where << "fault_plan.script[" << i << "]: ";
    // Bounds on doubles are written so that NaN fails them.
    if (!(action.time >= 0.0)) {
      return where.str() + "time must be >= 0";
    }
    int limit = TargetsDisk(action.kind) ? total_disks : num_nodes;
    if (action.target < 0 || action.target >= limit) {
      std::ostringstream out;
      out << where.str() << "target " << action.target << " out of range [0, "
          << limit << ")";
      return out.str();
    }
    if (action.kind == FaultKind::kDiskLimpBegin && !(action.factor >= 1.0)) {
      return where.str() + "limp factor must be >= 1";
    }
  }
  if (!(disk_mtbf_sec >= 0.0 && node_mtbf_sec >= 0.0 &&
        limp_mtbf_sec >= 0.0)) {
    return "fault_plan: MTBF values must be >= 0";
  }
  if (disk_mtbf_sec > 0.0 && !(disk_repair_mean_sec > 0.0)) {
    return "fault_plan: disk_repair_mean_sec must be > 0";
  }
  if (node_mtbf_sec > 0.0 && !(node_repair_mean_sec > 0.0)) {
    return "fault_plan: node_repair_mean_sec must be > 0";
  }
  if (limp_mtbf_sec > 0.0) {
    if (!(limp_duration_mean_sec > 0.0)) {
      return "fault_plan: limp_duration_mean_sec must be > 0";
    }
    if (!(limp_factor >= 1.0)) {
      return "fault_plan: limp_factor must be >= 1";
    }
  }
  if (reroute_hop_budget < 0) {
    return "fault_plan: reroute_hop_budget must be >= 0";
  }
  if (!(recheck_sec > 0.0)) {
    return "fault_plan: recheck_sec must be > 0";
  }
  return "";
}

std::string FaultPlan::Describe() const {
  if (!enabled()) return "none";
  std::ostringstream out;
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ", ";
    first = false;
  };
  if (!script.empty()) {
    sep();
    out << script.size() << " scripted action"
        << (script.size() == 1 ? "" : "s");
  }
  if (disk_mtbf_sec > 0.0) {
    sep();
    out << "disk MTBF " << disk_mtbf_sec << "s/repair "
        << disk_repair_mean_sec << "s";
  }
  if (node_mtbf_sec > 0.0) {
    sep();
    out << "node MTBF " << node_mtbf_sec << "s/repair "
        << node_repair_mean_sec << "s";
  }
  if (limp_mtbf_sec > 0.0) {
    sep();
    out << "limp MTBF " << limp_mtbf_sec << "s x" << limp_factor;
  }
  return out.str();
}

}  // namespace spiffi::fault
