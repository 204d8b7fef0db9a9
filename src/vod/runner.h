// Parallel experiment runner: fans independent (SimConfig, seed) runs
// across a pool of worker threads.
//
// Every Simulation owns its world (environment, calendar, RNG streams,
// metrics registry) except one immutable object: its video library,
// shared through a thread-safe process-wide cache with every run of the
// same library inputs (mpeg/library_cache.h). So independent runs share
// no mutable state and are embarrassingly parallel. The runner exploits
// that: submitted runs execute on worker threads and results are
// collected in submission order, which keeps every aggregate computed
// from them bit-identical to a serial execution of the same configs —
// the job count changes only wall-clock time, never results (locked by
// tests/vod/runner_test.cc).
//
// Runs are cooperatively cancellable: Cancel() flips a flag the
// simulation checks between event slices (Simulation::Run), so a
// speculative capacity-search probe made moot by another probe's
// verdict stops within a few percent of its runtime instead of running
// to completion.

#ifndef SPIFFI_VOD_RUNNER_H_
#define SPIFFI_VOD_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "vod/config.h"
#include "vod/metrics.h"
#include "vod/simulation.h"

namespace spiffi::vod {

// Resolves a --jobs style request: n >= 1 is taken as-is, anything else
// maps to sim::DefaultJobs() (SPIFFI_JOBS, else the hardware threads).
int ResolveJobs(int jobs);

class ParallelRunner {
 public:
  // Runs on the executing worker after the Simulation is constructed and
  // before Run() starts — the one hook through which callers can attach
  // per-run observers (telemetry recorders, tracers) to runner-executed
  // simulations. Whatever it returns is kept alive until the run
  // finishes and destroyed before waiters are released, so a returned
  // recorder has flushed and closed its output by the time Wait()
  // returns.
  using SetupFn = std::function<std::shared_ptr<void>(Simulation&)>;

  // State of one submitted run. Owned jointly by the runner's queue and
  // the caller's handle; all fields are guarded by the runner's mutex
  // except `cancel`, which the executing simulation polls, and
  // `progress`, which has its own mutex (written at every slice
  // boundary — a global lock there would serialize the fleet).
  struct Run {
    enum class State { kPending, kRunning, kDone, kCancelled };

    SimConfig config;
    SetupFn setup;               // may be empty
    double sim_end_seconds = 0.0;  // warmup + measure; set at Submit
    std::atomic<bool> cancel{false};
    State state = State::kPending;
    SimMetrics metrics;          // valid when state == kDone

    // Last slice-boundary snapshot from the executing simulation.
    mutable std::mutex progress_mutex;
    RunProgress progress;
  };
  using RunHandle = std::shared_ptr<Run>;

  // Aggregate progress across a runner's whole workload, the input to
  // fleet status lines and ETAs. `target_sim_seconds` counts every
  // non-cancelled submission; `done_sim_seconds` counts completed runs
  // in full plus running runs at their last reported sim-time, so
  // done/target is a faithful completion fraction.
  struct FleetProgress {
    std::uint64_t submitted = 0;
    std::uint64_t pending = 0;
    std::uint64_t running = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    double target_sim_seconds = 0.0;
    double done_sim_seconds = 0.0;
    std::uint64_t events_fired = 0;  // completed + running runs
  };

  // jobs >= 1 sets the worker count; jobs <= 0 uses sim::DefaultJobs().
  // Workers run inside a sim::PoolWorkerScope, so the video libraries
  // their simulations build are built serially.
  explicit ParallelRunner(int jobs = 0);
  // Cancels everything still pending or running, then joins the workers.
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int jobs() const { return jobs_; }

  // Enqueues one simulation run. `setup`, when non-empty, runs on the
  // worker thread right before the simulation starts (see SetupFn).
  RunHandle Submit(const SimConfig& config, SetupFn setup = nullptr);

  // Requests cooperative cancellation: a pending run never starts, a
  // running one stops at its next slice boundary. Waiters are released
  // either way.
  void Cancel(const RunHandle& run);

  // Blocks until the run finished or was cancelled. Returns true and
  // fills `out` (when non-null) on completion, false on cancellation.
  bool Wait(const RunHandle& run, SimMetrics* out);

  // Blocks until every run of some group of `groups` finished or was
  // cancelled; returns the index of the first such group.
  std::size_t WaitAny(const std::vector<std::vector<RunHandle>>& groups);

  // Convenience barrier: runs every config and returns the metrics in
  // submission order. The caller must not cancel these runs. The video
  // libraries of all configs are pinned on the calling thread before
  // anything is submitted and held for the call (PinLibraries), so the
  // batch builds one library per distinct library key, at any job count.
  std::vector<SimMetrics> RunAll(const std::vector<SimConfig>& configs);

  // --- Live introspection (all safe to call from any thread) ---

  // Aggregate progress over everything this runner has been given.
  FleetProgress SnapshotProgress() const;

  // Aggregate over every live ParallelRunner in the process — the view a
  // --progress printer wants when the experiment code owns the runners.
  static FleetProgress SnapshotAllRunners();

 private:
  void WorkerLoop();

  const int jobs_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable run_finished_;
  std::deque<RunHandle> queue_;
  bool shutdown_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  // Runs currently executing on workers (for fleet snapshots).
  std::vector<RunHandle> active_;
  std::uint64_t submitted_ = 0;
  double target_sim_seconds_ = 0.0;   // cancelled runs subtracted back out
  double done_sim_seconds_ = 0.0;     // completed runs only
  std::uint64_t events_completed_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_RUNNER_H_
