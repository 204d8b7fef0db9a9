// CPU model: a single-server FCFS instruction server (paper Table 1:
// 40 MIPS, FCFS).
//
// All operating-system work at a server node — receiving a message,
// starting an I/O, sending a reply — queues here and consumes simulated
// time proportional to an instruction budget:
//
//   co_await cpu.Execute(costs.send_message_instructions);

#ifndef SPIFFI_HW_CPU_H_
#define SPIFFI_HW_CPU_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "sim/calendar.h"
#include "sim/environment.h"
#include "sim/stats.h"

namespace spiffi::hw {

// Instruction costs from Table 1 (measured on the Intel Paragon).
struct CpuCosts {
  std::int64_t start_io_instructions = 20000;
  std::int64_t send_message_instructions = 6800;
  std::int64_t receive_message_instructions = 2200;
};

class Cpu {
 public:
  Cpu(sim::Environment* env, double mips);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  class ExecuteAwaiter final : public sim::EventHandler {
   public:
    ExecuteAwaiter(Cpu* cpu, sim::SimTime service_time)
        : cpu_(cpu), service_time_(service_time) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    void await_resume() const noexcept {}
    // Fires when service completes: frees the CPU, starts the next
    // queued request, then resumes the caller.
    void OnEvent(std::uint64_t) override;

   private:
    friend class Cpu;
    Cpu* cpu_;
    sim::SimTime service_time_;
    std::coroutine_handle<> handle_;
    ExecuteAwaiter* next_ = nullptr;  // FCFS queue link
  };

  // co_await cpu.Execute(n): queues FCFS and burns n instructions.
  ExecuteAwaiter Execute(std::int64_t instructions) {
    return ExecuteAwaiter(this,
                          static_cast<double>(instructions) / (mips_ * 1e6));
  }

  double mips() const { return mips_; }
  bool busy() const { return utilization_.busy(); }
  std::size_t queue_length() const { return queue_length_; }
  double AverageUtilization(sim::SimTime now) const {
    return utilization_.Average(now);
  }
  const sim::Tally& service_tally() const { return service_tally_; }
  // Resets measurement windows (after warmup).
  void ResetStats(sim::SimTime now);

 private:
  void Dispatch();  // starts the queue head if the CPU is idle

  sim::Environment* env_;
  double mips_;
  // FCFS queue, linked through the waiting awaiters (each lives in its
  // suspended coroutine's frame), so queueing never allocates.
  ExecuteAwaiter* queue_head_ = nullptr;
  ExecuteAwaiter* queue_tail_ = nullptr;
  std::size_t queue_length_ = 0;
  sim::Utilization utilization_;
  sim::Tally service_tally_;
};

}  // namespace spiffi::hw

#endif  // SPIFFI_HW_CPU_H_
