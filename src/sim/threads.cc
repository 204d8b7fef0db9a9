#include "sim/threads.h"

#include <cstdlib>
#include <thread>

namespace spiffi::sim {

namespace {
thread_local bool in_pool_worker = false;
}  // namespace

int DefaultJobs() {
  const char* env = std::getenv("SPIFFI_JOBS");
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

bool InPoolWorker() { return in_pool_worker; }

PoolWorkerScope::PoolWorkerScope() : outer_(in_pool_worker) {
  in_pool_worker = true;
}

PoolWorkerScope::~PoolWorkerScope() { in_pool_worker = outer_; }

}  // namespace spiffi::sim
