#include "sim/resource.h"

#include <utility>

#include "sim/check.h"

namespace spiffi::sim {

Resource::Resource(Environment* env, int servers, std::string name)
    : env_(env),
      servers_(servers),
      name_(std::move(name)),
      utilization_(servers) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(servers > 0);
}

void Resource::UseAwaiter::await_suspend(std::coroutine_handle<> handle) {
  handle_ = handle;
  Resource* resource = resource_;
  if (resource->queue_tail_ != nullptr) {
    resource->queue_tail_->next_ = this;
  } else {
    resource->queue_head_ = this;
  }
  resource->queue_tail_ = this;
  ++resource->queue_length_;
  resource->queue_weighted_.Set(static_cast<double>(resource->queue_length_),
                                resource->env_->now());
  resource->Dispatch();
}

void Resource::Dispatch() {
  while (busy_ < servers_ && queue_head_ != nullptr) {
    UseAwaiter* request = queue_head_;
    queue_head_ = request->next_;
    if (queue_head_ == nullptr) queue_tail_ = nullptr;
    request->next_ = nullptr;
    --queue_length_;
    queue_weighted_.Set(static_cast<double>(queue_length_), env_->now());
    ++busy_;
    utilization_.SetBusy(busy_, env_->now());
    service_tally_.Add(request->service_time_);
    env_->ScheduleAfter(request->service_time_, request);
  }
}

void Resource::UseAwaiter::OnEvent(std::uint64_t) {
  Resource* resource = resource_;
  --resource->busy_;
  resource->utilization_.SetBusy(resource->busy_, resource->env_->now());
  resource->Dispatch();
  handle_.resume();
}

void Resource::ResetStats(SimTime now) {
  utilization_.Reset(now);
  queue_weighted_.Reset(now);
  service_tally_.Reset();
}

}  // namespace spiffi::sim
