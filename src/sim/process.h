// Coroutine process type for process-oriented simulation.
//
// A simulation process is a C++20 coroutine returning sim::Process. It
// describes the sequential behaviour of one simulated entity (a terminal,
// a prefetch daemon, a disk service loop) and advances simulated time by
// co_await-ing environment primitives:
//
//   sim::Process Terminal::Run() {
//     co_await env_->Hold(1.5);          // sleep 1.5 simulated seconds
//     co_await cpu_->Use(0.0005);        // queue for and consume the CPU
//     Message m = co_await inbox_.Receive();
//     ...
//   }
//
// Lifecycle: a Process handle owns the suspended coroutine frame until it
// is passed to Environment::Spawn, which takes ownership, registers the
// frame, and schedules its first resumption at the current simulated time.
// When the coroutine runs to completion the frame deregisters itself and is
// destroyed. Frames still alive when the Environment is destroyed (the
// normal case for a closed system stopped at a time limit) are destroyed by
// the Environment.

#ifndef SPIFFI_SIM_PROCESS_H_
#define SPIFFI_SIM_PROCESS_H_

#include <coroutine>
#include <exception>
#include <utility>

namespace spiffi::sim {

class Environment;

namespace internal {
// Threads a spawned process onto its Environment's circular list of live
// processes. The links live in the promise, so registering a process
// allocates nothing beyond its frame.
struct ProcessLink {
  ProcessLink* prev = nullptr;
  ProcessLink* next = nullptr;
};

// Called by the final awaiter; defined in environment.cc to avoid a
// circular include.
void ProcessFinished(Environment* env, ProcessLink* link,
                     std::coroutine_handle<> handle);
}  // namespace internal

class Process {
 public:
  struct promise_type : internal::ProcessLink {
    // Set by Environment::Spawn before the first resumption.
    Environment* env = nullptr;

    Process get_return_object() {
      return Process(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }

    // Processes start suspended; Spawn schedules the first step.
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Deregisters and destroys the frame. After this call the
        // coroutine no longer exists; control returns to the run loop.
        internal::ProcessFinished(h.promise().env, &h.promise(), h);
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Process() = default;
  explicit Process(Handle handle) : handle_(handle) {}

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      DestroyIfOwned();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process() { DestroyIfOwned(); }

  // Transfers ownership of the frame (used by Environment::Spawn).
  Handle Release() { return std::exchange(handle_, {}); }

  bool valid() const { return static_cast<bool>(handle_); }

 private:
  void DestroyIfOwned() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_PROCESS_H_
