// Instrumentation entry points for model code.
//
// These helpers are how hot paths emit trace events. They read the
// Tracer owned by the simulation Environment (null until
// Environment::EnableTracing is called), so a run without a tracer pays
// one pointer test per call site.
//
//   obs::TraceInstant(env, obs::TraceCategory::kBuffer, "hit", pid, tid);
//
//   {
//     obs::ScopedSpan span(env, obs::TraceCategory::kDisk, "service",
//                          pid, tid);
//     co_await env->Hold(service_time);   // span covers the suspension
//   }
//
// ScopedSpan records the simulated-time interval between its
// construction and destruction on a serial (pid, tid) track; it works
// inside coroutines because the object lives in the coroutine frame
// across suspensions. Overlapping work (per-request lifecycles) should
// use TraceAsyncBegin/End with an id from TraceNextAsyncId.

#ifndef SPIFFI_OBS_TRACE_H_
#define SPIFFI_OBS_TRACE_H_

#include "obs/tracer.h"
#include "sim/environment.h"

namespace spiffi::obs {

inline void TraceInstant(sim::Environment* env, TraceCategory category,
                         const char* name, std::int32_t pid,
                         std::int32_t tid,
                         std::initializer_list<TraceArg> args = {}) {
  if (Tracer* tracer = env->tracer()) {
    tracer->Instant(category, name, pid, tid, env->now(), args);
  }
}

inline void TraceCounter(sim::Environment* env, TraceCategory category,
                         const char* name, std::int32_t pid,
                         std::int32_t tid, double value) {
  if (Tracer* tracer = env->tracer()) {
    tracer->Counter(category, name, pid, tid, env->now(), value);
  }
}

// Complete span from an explicitly remembered start time to now; for
// event-driven (non-coroutine) code where ScopedSpan has no scope to
// live in.
inline void TraceSpan(sim::Environment* env, TraceCategory category,
                      const char* name, std::int32_t pid, std::int32_t tid,
                      sim::SimTime start_ts,
                      std::initializer_list<TraceArg> args = {}) {
  if (Tracer* tracer = env->tracer()) {
    tracer->Span(category, name, pid, tid, start_ts, env->now(), args);
  }
}

// Returns 0 when tracing is inactive; 0 is never a valid async id, so
// paired-end helpers treat it as "no span open".
inline std::uint64_t TraceAsyncBegin(
    sim::Environment* env, TraceCategory category, const char* name,
    std::int32_t pid, std::initializer_list<TraceArg> args = {}) {
  Tracer* tracer = env->tracer();
  if (tracer == nullptr || !tracer->enabled()) return 0;
  std::uint64_t id = tracer->NextAsyncId();
  tracer->AsyncBegin(category, name, pid, id, env->now(), args);
  return id;
}

inline void TraceAsyncEnd(sim::Environment* env, TraceCategory category,
                          const char* name, std::int32_t pid,
                          std::uint64_t id,
                          std::initializer_list<TraceArg> args = {}) {
  if (id == 0) return;
  if (Tracer* tracer = env->tracer()) {
    tracer->AsyncEnd(category, name, pid, id, env->now(), args);
  }
}

class ScopedSpan {
 public:
  ScopedSpan(sim::Environment* env, TraceCategory category,
             const char* name, std::int32_t pid, std::int32_t tid)
      : env_(env),
        category_(category),
        name_(name),
        pid_(pid),
        tid_(tid),
        start_(env->now()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (Tracer* tracer = env_->tracer()) {
      tracer->Span(category_, name_, pid_, tid_, start_, env_->now());
    }
  }

 private:
  sim::Environment* env_;
  TraceCategory category_;
  const char* name_;
  std::int32_t pid_;
  std::int32_t tid_;
  sim::SimTime start_;
};

}  // namespace spiffi::obs

#endif  // SPIFFI_OBS_TRACE_H_
