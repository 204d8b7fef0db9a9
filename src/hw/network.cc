#include "hw/network.h"

#include <algorithm>
#include <cmath>

#include "sim/check.h"

namespace spiffi::hw {

Network::Network(sim::Environment* env, const NetworkParams& params)
    : env_(env), params_(params) {
  SPIFFI_CHECK(env != nullptr);
}

void Network::Send(std::int64_t bytes, sim::EventHandler* destination,
                   std::uint64_t token) {
  SPIFFI_DCHECK(bytes >= 0);
  total_bytes_ += static_cast<std::uint64_t>(bytes);
  ++total_messages_;
  auto bucket = static_cast<std::int64_t>(
      std::floor(env_->now() / params_.bandwidth_bucket_sec));
  if (bucket != open_bucket_) {
    closed_bucket_peak_ = std::max(closed_bucket_peak_, open_bucket_bytes_);
    open_bucket_ = bucket;
    open_bucket_bytes_ = 0;
  }
  open_bucket_bytes_ += static_cast<std::uint64_t>(bytes);
  env_->ScheduleAfter(WireDelay(bytes), destination, token);
}

void Network::ResetStats() {
  total_bytes_ = 0;
  total_messages_ = 0;
  open_bucket_ = -1;
  open_bucket_bytes_ = 0;
  closed_bucket_peak_ = 0;
  stats_start_ = env_->now();
}

std::uint64_t Network::peak_bytes_per_bucket() const {
  return std::max(open_bucket_bytes_, closed_bucket_peak_);
}

double Network::AverageBandwidth(sim::SimTime now) const {
  double window = now - stats_start_;
  if (window <= 0.0) return 0.0;
  return static_cast<double>(total_bytes_) / window;
}

}  // namespace spiffi::hw
