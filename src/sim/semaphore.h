// Counting semaphore with strict FIFO wakeup order.
//
// Wakeups pass through the calendar (a released waiter resumes as a
// distinct event at the current simulated time) so that interleavings are
// deterministic and recursion depth stays bounded.

#ifndef SPIFFI_SIM_SEMAPHORE_H_
#define SPIFFI_SIM_SEMAPHORE_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "sim/environment.h"
#include "sim/wait_list.h"

namespace spiffi::sim {

class Semaphore {
 public:
  Semaphore(Environment* env, std::int64_t initial_count);

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  class AcquireAwaiter {
   public:
    explicit AcquireAwaiter(Semaphore* sem)
        : sem_(sem), wait_(sem->waiters_.Wait()) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> handle) {
      wait_.await_suspend(handle);
    }
    void await_resume() const noexcept {}

   private:
    Semaphore* sem_;
    WaitList::Awaiter wait_;
  };

  // co_await sem.Acquire(): decrements the count, suspending while it is
  // zero. Waiters are served FIFO; a Release hands its unit directly to
  // the oldest waiter, so waiters cannot be starved by late arrivals.
  AcquireAwaiter Acquire() { return AcquireAwaiter(this); }

  // Returns one unit; wakes the oldest waiter if any.
  void Release();

  std::int64_t available() const { return count_; }
  std::size_t waiters() const { return waiters_.waiter_count(); }

 private:
  friend class AcquireAwaiter;

  std::int64_t count_;
  WaitList waiters_;
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_SEMAPHORE_H_
