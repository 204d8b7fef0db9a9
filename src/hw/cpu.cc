#include "hw/cpu.h"

#include "sim/check.h"

namespace spiffi::hw {

Cpu::Cpu(sim::Environment* env, double mips) : env_(env), mips_(mips) {
  SPIFFI_CHECK(env != nullptr);
}

void Cpu::ExecuteAwaiter::await_suspend(std::coroutine_handle<> handle) {
  handle_ = handle;
  Cpu* cpu = cpu_;
  if (cpu->queue_tail_ != nullptr) {
    cpu->queue_tail_->next_ = this;
  } else {
    cpu->queue_head_ = this;
  }
  cpu->queue_tail_ = this;
  ++cpu->queue_length_;
  cpu->Dispatch();
}

void Cpu::Dispatch() {
  if (utilization_.busy() || queue_head_ == nullptr) return;
  ExecuteAwaiter* request = queue_head_;
  queue_head_ = request->next_;
  if (queue_head_ == nullptr) queue_tail_ = nullptr;
  request->next_ = nullptr;
  --queue_length_;
  utilization_.SetBusy(true, env_->now());
  service_tally_.Add(request->service_time_);
  env_->ScheduleAfter(request->service_time_, request);
}

void Cpu::ExecuteAwaiter::OnEvent(std::uint64_t) {
  Cpu* cpu = cpu_;
  cpu->utilization_.SetBusy(false, cpu->env_->now());
  cpu->Dispatch();
  handle_.resume();
}

void Cpu::ResetStats(sim::SimTime now) {
  utilization_.Reset(now);
  service_tally_.Reset();
}

}  // namespace spiffi::hw
