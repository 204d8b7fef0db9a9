// Simulation environment: clock, calendar, and process registry.
//
// One Environment owns one independent simulation run. All model objects
// (disks, CPUs, terminals, ...) hold a pointer to their Environment and
// schedule activity through it. The Environment is strictly
// single-threaded.

#ifndef SPIFFI_SIM_ENVIRONMENT_H_
#define SPIFFI_SIM_ENVIRONMENT_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/calendar.h"
#include "sim/process.h"
#include "sim/time.h"

namespace spiffi::obs {
class Tracer;
}  // namespace spiffi::obs

namespace spiffi::sim {

class Environment {
 public:
  // Out of line: members reference the forward-declared obs::Tracer.
  Environment();
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // Current simulated time in seconds.
  SimTime now() const { return now_; }

  // Pre-sizes the calendar for `expected_entries` simultaneously pending
  // events (see Calendar::Reserve). Model builders call this once from
  // the configured load so the event heap never reallocates mid-run.
  void ReserveCalendar(std::size_t expected_entries) {
    calendar_.Reserve(expected_entries);
  }

  // Takes ownership of a suspended process coroutine and schedules its
  // first step at the current time (after already-pending same-time
  // events, preserving FIFO determinism).
  void Spawn(Process process);

  // Schedules handler->OnEvent(token) at absolute time `time` (>= now).
  EventId Schedule(SimTime time, EventHandler* handler,
                   std::uint64_t token = 0);
  // Schedule for a periodic tick (e.g. a display frame): cheaper when
  // ticks arrive in time order, identical in firing order (see
  // Calendar::ScheduleTick).
  EventId ScheduleTick(SimTime time, EventHandler* handler,
                       std::uint64_t token = 0);
  // Convenience: relative delay.
  EventId ScheduleAfter(SimTime delay, EventHandler* handler,
                        std::uint64_t token = 0);
  void Cancel(EventId id) { calendar_.Cancel(id); }

  // Schedules a coroutine resumption at absolute time `time`. The slot is
  // owned by the environment (small pool); used by awaiters that do not
  // want to be EventHandlers themselves.
  void ScheduleResume(std::coroutine_handle<> handle, SimTime time);

  // Awaitable: suspends the calling process for `delay` seconds. A zero
  // delay still passes through the calendar, yielding to other events
  // scheduled at the current instant.
  struct HoldAwaiter final : EventHandler {
    HoldAwaiter(Environment* e, SimTime t) : env(e), wake_time(t) {}

    Environment* env;
    SimTime wake_time;
    std::coroutine_handle<> handle;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      env->Schedule(wake_time, this);
    }
    void await_resume() const noexcept {}
    void OnEvent(std::uint64_t) override { handle.resume(); }
  };
  HoldAwaiter Hold(SimTime delay) { return HoldAwaiter(this, now_ + delay); }

  // Runs until the calendar is empty or Stop() is called.
  void Run();

  // Runs all events with time <= end, then sets now() = end.
  void RunUntil(SimTime end);

  // Stops the run loop after the event currently being fired.
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  std::uint64_t events_fired() const { return calendar_.fired_count(); }
  std::size_t live_processes() const { return live_processes_; }

  // --- Observability ---

  // Installs (or returns the already-installed) event tracer. Until this
  // is called, tracer() is null and instrumentation costs one pointer
  // test per call site.
  obs::Tracer& EnableTracing(std::size_t ring_capacity = 256 * 1024);
  obs::Tracer* tracer() const { return tracer_.get(); }

  // Kernel self-profiling counters (see obs/kernel_profile.h).
  std::size_t calendar_size() const { return calendar_.size(); }
  std::size_t peak_calendar_size() const { return calendar_.peak_size(); }
  std::uint64_t calendar_storage_grows() const {
    return calendar_.storage_grows();
  }
  std::uint64_t calendar_lane_fires() const {
    return calendar_.lane_fires();
  }
  std::uint64_t calendar_sift_levels() const {
    return calendar_.sift_levels();
  }
  std::size_t peak_processes() const { return peak_processes_; }
  std::size_t resume_slots() const { return all_slots_.size(); }
  std::size_t one_shot_slots() const { return one_shot_slot_count_; }

  // --- One-shot handler arena ---
  //
  // Fixed-size free-list arena for short-lived EventHandlers (network
  // deliveries and the like) that are created per message and die inside
  // their own OnEvent. NewOneShot replaces make_unique on the hot path:
  // after warmup every allocation is a free-list pop. The environment
  // owns the backing chunks, so objects still in flight at teardown are
  // reclaimed wholesale — which is why T must be trivially destructible
  // (DeleteOneShot and teardown run no destructors).
  static constexpr std::size_t kOneShotSlotBytes = 256;

  template <typename T, typename... Args>
  T* NewOneShot(Args&&... args) {
    static_assert(sizeof(T) <= kOneShotSlotBytes,
                  "one-shot handler exceeds the arena slot size");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    static_assert(std::is_trivially_destructible_v<T>,
                  "one-shot handlers are reclaimed without running "
                  "destructors");
    return ::new (AllocOneShotRaw()) T(std::forward<Args>(args)...);
  }

  template <typename T>
  void DeleteOneShot(T* object) {
    static_assert(std::is_trivially_destructible_v<T>);
    FreeOneShotRaw(object);
  }

 private:
  friend void internal::ProcessFinished(Environment* env,
                                        internal::ProcessLink* link,
                                        std::coroutine_handle<> handle);

  // Calendar slot that resumes a coroutine and returns itself to a free
  // list. Enables ScheduleResume without a dedicated awaiter object.
  struct ResumeSlot final : EventHandler {
    Environment* env = nullptr;
    std::coroutine_handle<> handle;
    ResumeSlot* next_free = nullptr;
    void OnEvent(std::uint64_t) override;
  };

  // Arena slot: raw storage while live, free-list node while idle.
  struct alignas(std::max_align_t) OneShotSlot {
    unsigned char bytes[kOneShotSlotBytes];
  };

  void* AllocOneShotRaw();
  void FreeOneShotRaw(void* storage);

  void Unlink(internal::ProcessLink* link);
  void DestroyLiveProcesses();

  Calendar calendar_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  std::unique_ptr<obs::Tracer> tracer_;
  std::size_t peak_processes_ = 0;
  // Sentinel of the circular list of live process frames, in spawn
  // order, and its length.
  internal::ProcessLink processes_{&processes_, &processes_};
  std::size_t live_processes_ = 0;
  // All slots ever created (owned here, so slots still sitting in the
  // calendar at teardown are reclaimed); free_slots_ chains the idle ones.
  std::vector<std::unique_ptr<ResumeSlot>> all_slots_;
  ResumeSlot* free_slots_ = nullptr;
  // One-shot arena backing store (chunked) and its free list, linked
  // through the first pointer-sized bytes of each idle slot.
  std::vector<std::unique_ptr<OneShotSlot[]>> one_shot_chunks_;
  void* one_shot_free_ = nullptr;
  std::size_t one_shot_slot_count_ = 0;
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_ENVIRONMENT_H_
