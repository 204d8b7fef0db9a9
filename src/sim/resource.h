// FCFS multi-server resource (CSIM "facility").
//
// Models a server such as a CPU: requests queue first-come-first-served,
// occupy one of `servers` units for a caller-supplied service time, and
// resume the requesting process when service completes.
//
//   co_await cpu.Use(instructions / mips / 1e6);
//
// Busy-unit and queue-length statistics are collected automatically.

#ifndef SPIFFI_SIM_RESOURCE_H_
#define SPIFFI_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/calendar.h"
#include "sim/environment.h"
#include "sim/stats.h"

namespace spiffi::sim {

class Resource {
 public:
  Resource(Environment* env, int servers, std::string name);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  class UseAwaiter final : public EventHandler {
   public:
    UseAwaiter(Resource* resource, SimTime service_time)
        : resource_(resource), service_time_(service_time) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    void await_resume() const noexcept {}
    // Fires when service completes: frees the server, dispatches the next
    // queued request, then resumes the caller.
    void OnEvent(std::uint64_t) override;

   private:
    friend class Resource;
    Resource* resource_;
    SimTime service_time_;
    std::coroutine_handle<> handle_;
    UseAwaiter* next_ = nullptr;  // FCFS queue link
  };

  // co_await resource.Use(t): queues FCFS, holds one server for t seconds.
  UseAwaiter Use(SimTime service_time) {
    return UseAwaiter(this, service_time);
  }

  // Resets measurement windows (after warmup).
  void ResetStats(SimTime now);

  const std::string& name() const { return name_; }
  int servers() const { return servers_; }
  int busy() const { return busy_; }
  std::size_t queue_length() const { return queue_length_; }
  double AverageUtilization(SimTime now) const {
    return utilization_.Average(now);
  }
  const TimeWeighted& queue_stats() const { return queue_weighted_; }
  const Tally& service_tally() const { return service_tally_; }

 private:
  void Dispatch();  // starts service for queued requests while idle servers

  Environment* env_;
  int servers_;
  std::string name_;
  int busy_ = 0;
  // FCFS queue, linked through the waiting awaiters (each lives in its
  // suspended coroutine's frame), so queueing never allocates.
  UseAwaiter* queue_head_ = nullptr;
  UseAwaiter* queue_tail_ = nullptr;
  std::size_t queue_length_ = 0;
  Utilization utilization_;
  TimeWeighted queue_weighted_;
  Tally service_tally_;
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_RESOURCE_H_
