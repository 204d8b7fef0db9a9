// Disk scheduling policies (paper §5.2.2).
//
//  * FCFS        — first come, first served (baseline from related work).
//  * Elevator    — SCAN: sweep the cylinders in one direction servicing
//                  requests as they are passed, reverse at the last one.
//  * Round-robin — service terminals in cyclic terminal order, FIFO
//                  within a terminal (== GSS with one group per terminal).
//  * GSS         — grouped sweeping scheme [Yu92]: terminals are hashed
//                  into k groups processed round-robin; each group pass
//                  services at most one request per terminal, in elevator
//                  order.
//  * Real-time   — deadline-to-priority-class extension of the elevator
//                  [Care89]: requests map to one of `classes` priority
//                  classes by remaining slack with uniform `spacing`
//                  between cutoffs (Fig 5); the most urgent non-empty
//                  class is serviced in elevator order, and priorities
//                  are recomputed from the clock at every pop (Fig 6).
//                  Requests with no deadline (plain prefetches) take the
//                  lowest priority.

#ifndef SPIFFI_SERVER_DISK_SCHED_H_
#define SPIFFI_SERVER_DISK_SCHED_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/disk.h"

namespace spiffi::server {

enum class DiskSchedPolicy {
  kFcfs,
  kElevator,
  kRoundRobin,
  kGss,
  kRealTime,
};
// Names in enumerator order.
inline constexpr const char* kDiskSchedPolicyNames[] = {
    "fcfs", "elevator", "round-robin", "gss", "real-time"};

const char* DiskSchedPolicyName(DiskSchedPolicy policy);

struct DiskSchedParams {
  DiskSchedPolicy policy = DiskSchedPolicy::kElevator;
  std::int64_t cylinder_bytes = 1;  // for cylinder math
  int gss_groups = 1;               // GSS only
  int realtime_classes = 3;         // real-time only
  double realtime_spacing_sec = 4.0;
};

// Builds a scheduler instance for one disk.
std::unique_ptr<hw::DiskScheduler> MakeDiskScheduler(
    const DiskSchedParams& params);

// --- Individual policies (exposed for unit tests) ---

class FcfsScheduler final : public hw::DiskScheduler {
 public:
  void Push(hw::DiskRequest* request) override;
  hw::DiskRequest* Pop(std::int64_t head_cylinder,
                       sim::SimTime now) override;
  bool empty() const override { return queue_.empty(); }
  std::size_t size() const override { return queue_.size(); }
  std::string name() const override { return "fcfs"; }

 private:
  std::deque<hw::DiskRequest*> queue_;
};

class ElevatorScheduler final : public hw::DiskScheduler {
 public:
  explicit ElevatorScheduler(std::int64_t cylinder_bytes)
      : cylinder_bytes_(cylinder_bytes) {}

  void Push(hw::DiskRequest* request) override;
  hw::DiskRequest* Pop(std::int64_t head_cylinder,
                       sim::SimTime now) override;
  bool empty() const override { return by_cylinder_.empty(); }
  std::size_t size() const override { return by_cylinder_.size(); }
  std::string name() const override { return "elevator"; }

  bool sweeping_up() const { return up_; }

 private:
  std::int64_t cylinder_bytes_;
  // Equal keys keep insertion (FIFO) order, per the multimap guarantee.
  std::multimap<std::int64_t, hw::DiskRequest*> by_cylinder_;
  bool up_ = true;
};

class RoundRobinScheduler final : public hw::DiskScheduler {
 public:
  void Push(hw::DiskRequest* request) override;
  hw::DiskRequest* Pop(std::int64_t head_cylinder,
                       sim::SimTime now) override;
  bool empty() const override { return total_ == 0; }
  std::size_t size() const override { return total_; }
  std::string name() const override { return "round-robin"; }

 private:
  std::map<int, std::deque<hw::DiskRequest*>> per_terminal_;
  int last_terminal_ = -1;
  std::size_t total_ = 0;
};

class GssScheduler final : public hw::DiskScheduler {
 public:
  GssScheduler(int groups, std::int64_t cylinder_bytes)
      : groups_(groups), cylinder_bytes_(cylinder_bytes) {}

  void Push(hw::DiskRequest* request) override;
  hw::DiskRequest* Pop(std::int64_t head_cylinder,
                       sim::SimTime now) override;
  bool empty() const override { return total_ == 0 && sweep_.empty(); }
  std::size_t size() const override { return total_ + sweep_.size(); }
  std::string name() const override;

  int current_group() const { return current_group_; }

 private:
  void BuildSweep();

  int groups_;
  std::int64_t cylinder_bytes_;
  std::map<int, std::deque<hw::DiskRequest*>> per_terminal_;
  std::size_t total_ = 0;  // requests in per_terminal_ (not in sweep_)
  std::vector<hw::DiskRequest*> sweep_;  // current group pass, served
                                         // back-to-front
  int current_group_ = 0;
  bool up_ = true;  // alternate sweep direction like an elevator
};

class RealTimeScheduler final : public hw::DiskScheduler {
 public:
  RealTimeScheduler(int classes, double spacing_sec,
                    std::int64_t cylinder_bytes)
      : classes_(classes),
        spacing_sec_(spacing_sec),
        cylinder_bytes_(cylinder_bytes) {}

  void Push(hw::DiskRequest* request) override;
  hw::DiskRequest* Pop(std::int64_t head_cylinder,
                       sim::SimTime now) override;
  bool empty() const override { return requests_.empty(); }
  std::size_t size() const override { return requests_.size(); }
  std::string name() const override;

  // Priority class (0 = most urgent) for a request with the given
  // deadline at time `now`; exposed for tests.
  int PriorityClass(sim::SimTime deadline, sim::SimTime now) const;

 private:
  int classes_;
  double spacing_sec_;
  std::int64_t cylinder_bytes_;
  std::vector<hw::DiskRequest*> requests_;
  bool up_ = true;
};

}  // namespace spiffi::server

#endif  // SPIFFI_SERVER_DISK_SCHED_H_
