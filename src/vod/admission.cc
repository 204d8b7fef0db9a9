#include "vod/admission.h"

#include <algorithm>
#include <iterator>

namespace spiffi::vod {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  const auto i = static_cast<std::size_t>(policy);
  return i < std::size(kAdmissionPolicyNames) ? kAdmissionPolicyNames[i]
                                              : "unknown";
}

AdmissionController::AdmissionController(const AdmissionParams& params)
    : params_(params), live_nodes_(params.num_nodes) {}

double AdmissionController::capacity_bytes_per_sec() const {
  double envelope = static_cast<double>(live_nodes_) *
                    params_.node_bytes_per_sec *
                    params_.headroom_fraction;
  return std::max(0.0, envelope - rebuild_load_total_);
}

bool AdmissionController::Fits() const {
  if (reserved_bytes_per_sec() + params_.stream_bytes_per_sec >
      capacity_bytes_per_sec()) {
    return false;
  }
  if (params_.policy == AdmissionPolicy::kMeasuredHeadroom && probe_) {
    if (probe_() >= params_.headroom_fraction) return false;
  }
  return true;
}

AdmissionController::Decision AdmissionController::TryAdmit(int session) {
  if (admitted_.contains(session)) return Decision::kAdmit;
  if (Fits()) {
    admitted_.insert(session);
    defer_streak_.erase(session);
    ++stats_.admits;
    return Decision::kAdmit;
  }
  int streak = ++defer_streak_[session];
  if (streak > params_.max_defers_before_reject) {
    defer_streak_.erase(session);
    ++stats_.rejects;
    return Decision::kReject;
  }
  ++stats_.defers;
  return Decision::kDefer;
}

void AdmissionController::Release(int session) {
  if (admitted_.erase(session) > 0) ++stats_.releases;
}

AdmissionController::Decision AdmissionController::Readmit(int session) {
  if (admitted_.contains(session)) {
    ++stats_.failover_readmissions;
    return Decision::kAdmit;
  }
  Decision decision = TryAdmit(session);
  if (decision == Decision::kAdmit) ++stats_.failover_readmissions;
  return decision;
}

void AdmissionController::OnNodeDown(int node) {
  (void)node;
  live_nodes_ = std::max(0, live_nodes_ - 1);
}

void AdmissionController::OnNodeUp(int node) {
  (void)node;
  live_nodes_ = std::min(params_.num_nodes, live_nodes_ + 1);
}

void AdmissionController::SetRebuildLoad(int key, double bytes_per_sec) {
  double& slot = rebuild_load_[key];
  rebuild_load_total_ += bytes_per_sec - slot;
  slot = bytes_per_sec;
  if (bytes_per_sec == 0.0) rebuild_load_.erase(key);
  if (rebuild_load_total_ < 0.0) rebuild_load_total_ = 0.0;
}

}  // namespace spiffi::vod
