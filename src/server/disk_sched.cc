#include "server/disk_sched.h"

#include <algorithm>
#include <iterator>

#include "sim/check.h"

namespace spiffi::server {

const char* DiskSchedPolicyName(DiskSchedPolicy policy) {
  const auto i = static_cast<std::size_t>(policy);
  return i < std::size(kDiskSchedPolicyNames) ? kDiskSchedPolicyNames[i]
                                              : "unknown";
}

std::unique_ptr<hw::DiskScheduler> MakeDiskScheduler(
    const DiskSchedParams& params) {
  switch (params.policy) {
    case DiskSchedPolicy::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case DiskSchedPolicy::kElevator:
      return std::make_unique<ElevatorScheduler>(params.cylinder_bytes);
    case DiskSchedPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case DiskSchedPolicy::kGss:
      return std::make_unique<GssScheduler>(params.gss_groups,
                                            params.cylinder_bytes);
    case DiskSchedPolicy::kRealTime:
      return std::make_unique<RealTimeScheduler>(
          params.realtime_classes, params.realtime_spacing_sec,
          params.cylinder_bytes);
  }
  return nullptr;
}

// --- FCFS ---

void FcfsScheduler::Push(hw::DiskRequest* request) {
  queue_.push_back(request);
}

hw::DiskRequest* FcfsScheduler::Pop(std::int64_t, sim::SimTime) {
  SPIFFI_DCHECK(!queue_.empty());
  hw::DiskRequest* request = queue_.front();
  queue_.pop_front();
  return request;
}

// --- Elevator ---

void ElevatorScheduler::Push(hw::DiskRequest* request) {
  by_cylinder_.emplace(request->start_cylinder(cylinder_bytes_), request);
}

hw::DiskRequest* ElevatorScheduler::Pop(std::int64_t head_cylinder,
                                        sim::SimTime) {
  SPIFFI_DCHECK(!by_cylinder_.empty());
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (up_) {
      auto it = by_cylinder_.lower_bound(head_cylinder);
      if (it != by_cylinder_.end()) {
        hw::DiskRequest* request = it->second;
        by_cylinder_.erase(it);
        return request;
      }
      up_ = false;  // nothing ahead; reverse
    } else {
      auto it = by_cylinder_.upper_bound(head_cylinder);
      if (it != by_cylinder_.begin()) {
        --it;
        hw::DiskRequest* request = it->second;
        by_cylinder_.erase(it);
        return request;
      }
      up_ = true;
    }
  }
  SPIFFI_CHECK(false);  // non-empty queue must yield a request
  return nullptr;
}

// --- Round-robin ---

void RoundRobinScheduler::Push(hw::DiskRequest* request) {
  per_terminal_[request->terminal].push_back(request);
  ++total_;
}

hw::DiskRequest* RoundRobinScheduler::Pop(std::int64_t, sim::SimTime) {
  SPIFFI_DCHECK(total_ > 0);
  // The next terminal in cyclic id order after the last one serviced.
  auto it = per_terminal_.upper_bound(last_terminal_);
  if (it == per_terminal_.end()) it = per_terminal_.begin();
  hw::DiskRequest* request = it->second.front();
  it->second.pop_front();
  last_terminal_ = it->first;
  if (it->second.empty()) per_terminal_.erase(it);
  --total_;
  return request;
}

// --- GSS ---

std::string GssScheduler::name() const {
  return "gss-" + std::to_string(groups_);
}

void GssScheduler::Push(hw::DiskRequest* request) {
  per_terminal_[request->terminal].push_back(request);
  ++total_;
}

void GssScheduler::BuildSweep() {
  SPIFFI_DCHECK(sweep_.empty());
  // Advance to the next group (round-robin) that has pending requests and
  // select at most one request per terminal of that group.
  for (int step = 0; step < groups_; ++step) {
    int group = (current_group_ + step) % groups_;
    for (auto it = per_terminal_.begin(); it != per_terminal_.end();) {
      if (it->first % groups_ == group) {
        sweep_.push_back(it->second.front());
        it->second.pop_front();
        --total_;
        if (it->second.empty()) {
          it = per_terminal_.erase(it);
          continue;
        }
      }
      ++it;
    }
    if (!sweep_.empty()) {
      current_group_ = (group + 1) % groups_;
      break;
    }
  }
  // Elevator order within the pass: sort by cylinder and alternate the
  // sweep direction pass to pass. Requests are consumed from the back.
  std::sort(sweep_.begin(), sweep_.end(),
            [this](const hw::DiskRequest* a, const hw::DiskRequest* b) {
              std::int64_t ca = a->start_cylinder(cylinder_bytes_);
              std::int64_t cb = b->start_cylinder(cylinder_bytes_);
              if (ca != cb) return up_ ? ca > cb : ca < cb;
              return a->seq > b->seq;  // FIFO among equal cylinders
            });
  up_ = !up_;
}

hw::DiskRequest* GssScheduler::Pop(std::int64_t, sim::SimTime) {
  if (sweep_.empty()) BuildSweep();
  SPIFFI_DCHECK(!sweep_.empty());
  hw::DiskRequest* request = sweep_.back();
  sweep_.pop_back();
  return request;
}

// --- Real-time ---

std::string RealTimeScheduler::name() const {
  return "real-time-" + std::to_string(classes_) + "x" +
         std::to_string(static_cast<int>(spacing_sec_)) + "s";
}

void RealTimeScheduler::Push(hw::DiskRequest* request) {
  requests_.push_back(request);
}

int RealTimeScheduler::PriorityClass(sim::SimTime deadline,
                                     sim::SimTime now) const {
  if (deadline >= sim::kSimTimeMax) return classes_ - 1;
  double slack = deadline - now;
  if (slack <= 0.0) return 0;
  auto cls = static_cast<int>(slack / spacing_sec_);
  return std::min(cls, classes_ - 1);
}

hw::DiskRequest* RealTimeScheduler::Pop(std::int64_t head_cylinder,
                                        sim::SimTime now) {
  SPIFFI_DCHECK(!requests_.empty());
  // Priorities are recomputed from the current clock on every pop.
  int best_class = classes_;
  for (const hw::DiskRequest* r : requests_) {
    best_class = std::min(best_class, PriorityClass(r->deadline, now));
    if (best_class == 0) break;
  }

  // Elevator selection within the most urgent class. Prefer the nearest
  // request in the sweep direction; if the class has none that way,
  // reverse the sweep.
  auto pick = [&](bool up) -> std::size_t {
    std::size_t best = requests_.size();
    std::int64_t best_cyl = 0;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const hw::DiskRequest* r = requests_[i];
      if (PriorityClass(r->deadline, now) != best_class) continue;
      std::int64_t cyl = r->start_cylinder(cylinder_bytes_);
      bool in_direction = up ? cyl >= head_cylinder : cyl <= head_cylinder;
      if (!in_direction) continue;
      bool better;
      if (best == requests_.size()) {
        better = true;
      } else if (cyl != best_cyl) {
        better = up ? cyl < best_cyl : cyl > best_cyl;
      } else {
        better = r->seq < requests_[best]->seq;  // FIFO tie-break
      }
      if (better) {
        best = i;
        best_cyl = cyl;
      }
    }
    return best;
  };

  std::size_t chosen = pick(up_);
  if (chosen == requests_.size()) {
    up_ = !up_;
    chosen = pick(up_);
  }
  SPIFFI_CHECK(chosen < requests_.size());
  hw::DiskRequest* request = requests_[chosen];
  requests_[chosen] = requests_.back();
  requests_.pop_back();
  return request;
}

}  // namespace spiffi::server
