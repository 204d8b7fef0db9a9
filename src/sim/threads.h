// The process's thread budget, shared by everything that starts threads:
// the parallel experiment runner (vod/runner.h) and the video library
// build (mpeg/video.h). Both size themselves from DefaultJobs(), so
// SPIFFI_JOBS caps every thread the simulator starts.
//
// A thread that is already one worker of a pool sized to the cores
// marks itself with a PoolWorkerScope; code that could fan out onto
// helper threads checks InPoolWorker() and stays serial there, so
// nested parallelism never oversubscribes the machine.

#ifndef SPIFFI_SIM_THREADS_H_
#define SPIFFI_SIM_THREADS_H_

namespace spiffi::sim {

// The SPIFFI_JOBS environment variable when it is a positive integer,
// otherwise std::thread::hardware_concurrency() (at least 1).
int DefaultJobs();

// True while the calling thread is inside a PoolWorkerScope.
bool InPoolWorker();

// Marks the calling thread as a pool worker for the scope's lifetime.
class PoolWorkerScope {
 public:
  PoolWorkerScope();
  ~PoolWorkerScope();
  PoolWorkerScope(const PoolWorkerScope&) = delete;
  PoolWorkerScope& operator=(const PoolWorkerScope&) = delete;

 private:
  bool outer_;  // the mark this scope replaced
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_THREADS_H_
