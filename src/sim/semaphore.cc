#include "sim/semaphore.h"

#include "sim/check.h"

namespace spiffi::sim {

Semaphore::Semaphore(Environment* env, std::int64_t initial_count)
    : count_(initial_count), waiters_(env) {
  SPIFFI_CHECK(initial_count >= 0);
}

bool Semaphore::AcquireAwaiter::await_ready() {
  // Even when units are available, queued waiters go first (FIFO).
  if (sem_->count_ > 0 && sem_->waiters_.waiter_count() == 0) {
    --sem_->count_;
    return true;
  }
  return false;
}

void Semaphore::Release() {
  if (waiters_.waiter_count() > 0) {
    // Hand the unit directly to the oldest waiter; the count is not
    // incremented, so a racing Acquire at the same instant cannot steal it.
    waiters_.NotifyOne();
  } else {
    ++count_;
  }
}

}  // namespace spiffi::sim
