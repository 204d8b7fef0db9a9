#include "sim/environment.h"

#include "obs/tracer.h"
#include "sim/check.h"

namespace spiffi::sim {

namespace internal {

void ProcessFinished(Environment* env, ProcessLink* link,
                     std::coroutine_handle<> handle) {
  SPIFFI_CHECK(env != nullptr);  // every process must be Spawn-ed
  env->Unlink(link);
  handle.destroy();
}

}  // namespace internal

Environment::Environment() = default;

Environment::~Environment() {
  // Pending events may reference awaiters living inside coroutine frames;
  // drop them before destroying the frames. (ResumeSlots — including any
  // still scheduled — are owned by all_slots_ and freed with it.)
  calendar_.Clear();
  DestroyLiveProcesses();
}

void Environment::Unlink(internal::ProcessLink* link) {
  link->prev->next = link->next;
  link->next->prev = link->prev;
  --live_processes_;
}

void Environment::DestroyLiveProcesses() {
  // Destroying a frame runs destructors only: it neither finishes the
  // process (no ProcessFinished) nor spawns another.
  while (processes_.next != &processes_) {
    internal::ProcessLink* link = processes_.next;
    Unlink(link);
    Process::Handle::from_promise(static_cast<Process::promise_type&>(*link))
        .destroy();
  }
}

void Environment::Spawn(Process process) {
  SPIFFI_CHECK(process.valid());
  Process::Handle handle = process.Release();
  Process::promise_type& promise = handle.promise();
  promise.env = this;
  promise.prev = processes_.prev;
  promise.next = &processes_;
  processes_.prev->next = &promise;
  processes_.prev = &promise;
  if (++live_processes_ > peak_processes_) peak_processes_ = live_processes_;
  ScheduleResume(handle, now_);
}

obs::Tracer& Environment::EnableTracing(std::size_t ring_capacity) {
  if (tracer_ == nullptr) {
    tracer_ = std::make_unique<obs::Tracer>(ring_capacity);
  }
  return *tracer_;
}

EventId Environment::Schedule(SimTime time, EventHandler* handler,
                              std::uint64_t token) {
  SPIFFI_DCHECK(time >= now_);
  return calendar_.Schedule(time, handler, token);
}

EventId Environment::ScheduleTick(SimTime time, EventHandler* handler,
                                  std::uint64_t token) {
  SPIFFI_DCHECK(time >= now_);
  return calendar_.ScheduleTick(time, handler, token);
}

EventId Environment::ScheduleAfter(SimTime delay, EventHandler* handler,
                                   std::uint64_t token) {
  // Clamp rather than DCHECK: release builds compile the check out, and
  // a negative (or NaN) delay would then schedule into the past and
  // break the calendar's rule that simulated time never runs backwards.
  if (!(delay >= 0.0)) delay = 0.0;
  return calendar_.Schedule(now_ + delay, handler, token);
}

void Environment::ResumeSlot::OnEvent(std::uint64_t) {
  std::coroutine_handle<> h = handle;
  handle = {};
  next_free = env->free_slots_;
  env->free_slots_ = this;
  h.resume();
}

void* Environment::AllocOneShotRaw() {
  if (one_shot_free_ != nullptr) {
    void* storage = one_shot_free_;
    one_shot_free_ = *static_cast<void**>(storage);
    return storage;
  }
  // Grow by a chunk and thread every new slot onto the free list.
  constexpr std::size_t kChunkSlots = 64;
  one_shot_chunks_.push_back(std::make_unique<OneShotSlot[]>(kChunkSlots));
  OneShotSlot* chunk = one_shot_chunks_.back().get();
  one_shot_slot_count_ += kChunkSlots;
  for (std::size_t i = 1; i < kChunkSlots; ++i) {
    FreeOneShotRaw(&chunk[i]);
  }
  return &chunk[0];
}

void Environment::FreeOneShotRaw(void* storage) {
  *static_cast<void**>(storage) = one_shot_free_;
  one_shot_free_ = storage;
}

void Environment::ScheduleResume(std::coroutine_handle<> handle,
                                 SimTime time) {
  ResumeSlot* slot = free_slots_;
  if (slot != nullptr) {
    free_slots_ = slot->next_free;
  } else {
    all_slots_.push_back(std::make_unique<ResumeSlot>());
    slot = all_slots_.back().get();
    slot->env = this;
  }
  slot->handle = handle;
  calendar_.Schedule(time, slot);
}

void Environment::Run() {
  stopped_ = false;
  while (!stopped_ && !calendar_.empty()) {
    SimTime t = calendar_.PeekTime();
    SPIFFI_DCHECK(t >= now_);
    now_ = t;
    calendar_.FireNext();
  }
}

void Environment::RunUntil(SimTime end) {
  stopped_ = false;
  while (!stopped_) {
    SimTime t = calendar_.PeekTime();
    if (t > end) break;
    now_ = t;
    calendar_.FireNext();
  }
  if (!stopped_ && now_ < end) now_ = end;
}

}  // namespace spiffi::sim
