#include "vod/runner.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"
#include "sim/threads.h"
#include "vod/simulation.h"

namespace spiffi::vod {

namespace {

// Process-wide registry of live runners, so a --progress printer thread
// can aggregate fleet status without threading runner pointers through
// every experiment. Runners register on construction and deregister as
// the first step of destruction.
std::mutex& RunnerRegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<ParallelRunner*>& RunnerRegistry() {
  static std::vector<ParallelRunner*> runners;
  return runners;
}

}  // namespace

int ResolveJobs(int jobs) { return jobs >= 1 ? jobs : sim::DefaultJobs(); }

ParallelRunner::ParallelRunner(int jobs) : jobs_(ResolveJobs(jobs)) {
  {
    std::lock_guard<std::mutex> lock(RunnerRegistryMutex());
    RunnerRegistry().push_back(this);
  }
  workers_.reserve(jobs_);
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(RunnerRegistryMutex());
    std::vector<ParallelRunner*>& runners = RunnerRegistry();
    runners.erase(std::find(runners.begin(), runners.end(), this));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    // Pending runs never start; running ones see their cancel flag at the
    // next slice boundary.
    for (const RunHandle& run : queue_) {
      run->cancel.store(true, std::memory_order_relaxed);
    }
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers are gone: mark whatever they never picked up as cancelled so
  // stray Wait() calls cannot block forever.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RunHandle& run : queue_) {
      if (run->state == Run::State::kPending) {
        run->state = Run::State::kCancelled;
        ++cancelled_;
      }
    }
    queue_.clear();
  }
  run_finished_.notify_all();
}

ParallelRunner::RunHandle ParallelRunner::Submit(const SimConfig& config,
                                                 SetupFn setup) {
  RunHandle run = std::make_shared<Run>();
  run->config = config;
  run->setup = std::move(setup);
  run->sim_end_seconds = config.warmup_seconds + config.measure_seconds;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SPIFFI_CHECK(!shutdown_);
    queue_.push_back(run);
    ++submitted_;
    target_sim_seconds_ += run->sim_end_seconds;
  }
  work_available_.notify_one();
  return run;
}

void ParallelRunner::Cancel(const RunHandle& run) {
  SPIFFI_CHECK(run != nullptr);
  run->cancel.store(true, std::memory_order_relaxed);
  bool retired = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (run->state == Run::State::kPending) {
      // Retire it right away rather than making a worker pop-and-skip it.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == run) {
          queue_.erase(it);
          break;
        }
      }
      run->state = Run::State::kCancelled;
      ++cancelled_;
      target_sim_seconds_ -= run->sim_end_seconds;
      retired = true;
    }
    // A running run stops at its next slice; its worker notifies waiters.
  }
  if (retired) run_finished_.notify_all();
}

bool ParallelRunner::Wait(const RunHandle& run, SimMetrics* out) {
  SPIFFI_CHECK(run != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  run_finished_.wait(lock, [&] {
    return run->state == Run::State::kDone ||
           run->state == Run::State::kCancelled;
  });
  if (run->state != Run::State::kDone) return false;
  if (out != nullptr) *out = run->metrics;
  return true;
}

std::size_t ParallelRunner::WaitAny(
    const std::vector<std::vector<RunHandle>>& groups) {
  SPIFFI_CHECK(!groups.empty());
  auto finished = [](const RunHandle& run) {
    return run->state == Run::State::kDone ||
           run->state == Run::State::kCancelled;
  };
  std::size_t ready = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  run_finished_.wait(lock, [&] {
    for (ready = 0; ready < groups.size(); ++ready) {
      if (std::all_of(groups[ready].begin(), groups[ready].end(), finished)) {
        return true;
      }
    }
    return false;
  });
  return ready;
}

std::vector<SimMetrics> ParallelRunner::RunAll(
    const std::vector<SimConfig>& configs) {
  const LibraryPins pins = PinLibraries(configs);
  std::vector<RunHandle> handles;
  handles.reserve(configs.size());
  for (const SimConfig& config : configs) handles.push_back(Submit(config));
  std::vector<SimMetrics> results;
  results.reserve(handles.size());
  for (const RunHandle& handle : handles) {
    SimMetrics metrics;
    bool completed = Wait(handle, &metrics);
    SPIFFI_CHECK(completed);  // RunAll batches are never cancelled
    results.push_back(metrics);
  }
  return results;
}

ParallelRunner::FleetProgress ParallelRunner::SnapshotProgress() const {
  FleetProgress fleet;
  std::lock_guard<std::mutex> lock(mutex_);
  fleet.submitted = submitted_;
  fleet.pending = queue_.size();
  fleet.running = active_.size();
  fleet.completed = completed_;
  fleet.cancelled = cancelled_;
  fleet.target_sim_seconds = target_sim_seconds_;
  fleet.done_sim_seconds = done_sim_seconds_;
  fleet.events_fired = events_completed_;
  for (const RunHandle& run : active_) {
    std::lock_guard<std::mutex> progress_lock(run->progress_mutex);
    fleet.done_sim_seconds += run->progress.sim_now_seconds;
    fleet.events_fired += run->progress.events_fired;
  }
  return fleet;
}

ParallelRunner::FleetProgress ParallelRunner::SnapshotAllRunners() {
  FleetProgress fleet;
  std::lock_guard<std::mutex> lock(RunnerRegistryMutex());
  for (const ParallelRunner* runner : RunnerRegistry()) {
    FleetProgress one = runner->SnapshotProgress();
    fleet.submitted += one.submitted;
    fleet.pending += one.pending;
    fleet.running += one.running;
    fleet.completed += one.completed;
    fleet.cancelled += one.cancelled;
    fleet.target_sim_seconds += one.target_sim_seconds;
    fleet.done_sim_seconds += one.done_sim_seconds;
    fleet.events_fired += one.events_fired;
  }
  return fleet;
}

void ParallelRunner::WorkerLoop() {
  // The pool already fills the cores: no nested fan-out from here.
  sim::PoolWorkerScope worker;
  for (;;) {
    RunHandle run;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      run = queue_.front();
      queue_.pop_front();
      if (run->cancel.load(std::memory_order_relaxed)) {
        run->state = Run::State::kCancelled;
        ++cancelled_;
        target_sim_seconds_ -= run->sim_end_seconds;
        run_finished_.notify_all();
        continue;
      }
      run->state = Run::State::kRunning;
      active_.push_back(run);
    }

    // The simulation's whole world is local to this call; the only state
    // shared with other threads is the cancel flag, the progress
    // snapshot (own mutex), and the fields written back under the lock
    // below on completion.
    Simulation simulation(run->config);
    std::shared_ptr<void> keepalive;
    if (run->setup) keepalive = run->setup(simulation);
    SimMetrics metrics;
    Run* raw = run.get();
    bool completed =
        simulation.Run(run->cancel, &metrics, [raw](const RunProgress& p) {
          std::lock_guard<std::mutex> lock(raw->progress_mutex);
          raw->progress = p;
        });
    // Destroy per-run attachments (flushing/closing their outputs)
    // before waiters are released.
    keepalive.reset();

    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_.erase(std::find(active_.begin(), active_.end(), run));
      if (completed) {
        run->metrics = metrics;
        run->state = Run::State::kDone;
        ++completed_;
        done_sim_seconds_ += run->sim_end_seconds;
        // The final slice boundary is the exact phase end, so the last
        // progress snapshot carries the run's total event count.
        std::lock_guard<std::mutex> progress_lock(run->progress_mutex);
        events_completed_ += run->progress.events_fired;
      } else {
        run->state = Run::State::kCancelled;
        ++cancelled_;
        target_sim_seconds_ -= run->sim_end_seconds;
      }
    }
    run_finished_.notify_all();
  }
}

}  // namespace spiffi::vod
