#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "host_speed.h"
#include "obs/kernel_profile.h"
#include "replays.h"
#include "spans.h"
#include "vod/report.h"
#include "vod/simulation.h"
#include "vod/telemetry.h"

namespace perfbench {

namespace vod = spiffi::vod;
namespace server = spiffi::server;
namespace hw = spiffi::hw;

namespace {

using Clock = std::chrono::steady_clock;

// Host times are reported at their fastest repetition. Every repetition
// does bit-identical simulated work, and on a shared host interference
// only ever adds time, so the fastest observation of each piece of work
// is the steadiest estimate of what the program itself costs. Pieces
// are kept small (one progress slice of Run(), one capacity search) so
// that each has several chances to run undisturbed. A host that stays
// slow for the whole run is corrected for afterwards (host_speed.h).

// Simulation constructions timed per repetition for setup_s: the
// operation's own plus extra construct-and-destroy rounds.
constexpr int kSetupSamplesPerRep = 3;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear interpolation between closest ranks; 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

// Element-wise minimum over repetitions of the same sequence of work.
std::vector<double> BestOf(const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) return {};
  std::vector<double> best = reps.front();
  for (const std::vector<double>& rep : reps) {
    for (std::size_t i = 0; i < best.size() && i < rep.size(); ++i) {
      best[i] = std::min(best[i], rep[i]);
    }
  }
  return best;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- Configurations ---

void ShortWindows(vod::SimConfig* config) {
  config->start_window_sec = 5.0;
  config->warmup_seconds = 8.0;
  config->measure_seconds = 8.0;
}

// 4 nodes x 16 disks (256 one-hour videos), Zipf z=1, 512 KB stripe,
// love-prefetch, 2.5 MB terminals, default 60/100/120 s windows.
vod::SimConfig PaperScale64(std::uint64_t seed, bool shrink) {
  vod::SimConfig config;
  config.seed = seed;
  config.num_nodes = 4;
  config.disks_per_node = 16;
  config.replacement = server::ReplacementPolicy::kLovePrefetch;
  config.terminal_memory_bytes = 5 * hw::kMiB / 2;
  if (shrink) {
    config.num_nodes = 2;
    config.disks_per_node = 2;
    ShortWindows(&config);
  }
  return config;
}

vod::SimConfig Steady64Config(std::uint64_t seed, bool shrink) {
  vod::SimConfig config = PaperScale64(seed, shrink);
  config.disk_sched = server::DiskSchedPolicy::kElevator;
  config.prefetch = server::PrefetchPolicy::kFifo;
  config.server_memory_bytes = shrink ? 128 * hw::kMiB : 2 * hw::kGiB;
  config.terminals = shrink ? 40 : 700;
  return config;
}

vod::SimConfig RtOverload64Config(std::uint64_t seed, bool shrink) {
  vod::SimConfig config = PaperScale64(seed, shrink);
  config.disk_sched = server::DiskSchedPolicy::kRealTime;
  config.realtime_classes = 3;
  config.realtime_spacing_sec = 4.0;
  config.prefetch = server::PrefetchPolicy::kDelayed;
  config.max_advance_prefetch_sec = 8.0;
  config.server_memory_bytes = shrink ? 32 * hw::kMiB : 512 * hw::kMiB;
  config.terminals = shrink ? 60 : 850;
  return config;
}

// Table 2's four base configurations at 16 disks, smoke windows.
std::vector<vod::SimConfig> SearchGridConfigs(std::uint64_t seed,
                                              bool shrink) {
  struct Base {
    bool realtime;
    std::int64_t terminal_kib;
    std::int64_t server_mib;
  };
  const Base bases[] = {
      {false, 2048, 128}, {false, 2560, 128}, {false, 2048, 512},
      {true, 2048, 512}};
  std::vector<vod::SimConfig> grid;
  for (const Base& base : bases) {
    vod::SimConfig config;
    config.seed = seed;
    config.num_nodes = 4;
    config.disks_per_node = 4;
    config.start_window_sec = 20.0;
    config.warmup_seconds = 30.0;
    config.measure_seconds = 30.0;
    config.replacement = server::ReplacementPolicy::kLovePrefetch;
    config.terminal_memory_bytes = base.terminal_kib * hw::kKiB;
    config.server_memory_bytes = base.server_mib * hw::kMiB;
    if (base.realtime) {
      config.disk_sched = server::DiskSchedPolicy::kRealTime;
      config.realtime_classes = 3;
      config.realtime_spacing_sec = 4.0;
      config.prefetch = server::PrefetchPolicy::kDelayed;
      config.max_advance_prefetch_sec = 8.0;
    } else {
      config.disk_sched = server::DiskSchedPolicy::kElevator;
      config.prefetch = server::PrefetchPolicy::kFifo;
    }
    if (shrink) {
      config.num_nodes = 2;
      config.disks_per_node = 2;
      ShortWindows(&config);
    }
    grid.push_back(config);
  }
  return grid;
}

vod::CapacitySearchOptions GridSearchOptions(bool shrink, int jobs) {
  vod::CapacitySearchOptions options;
  options.step = 5;
  options.start_guess = shrink ? 20 : 200;
  options.max_terminals = shrink ? 200 : 2000;
  options.replications = 1;
  options.jobs = jobs;
  return options;
}

vod::TelemetryOptions InMemoryTelemetry() {
  vod::TelemetryOptions options;
  options.interval_sec = 1.0;  // every simulated second, no file
  return options;
}

std::string PoolConservation(const vod::SimMetrics& m) {
  if (m.buffer_references ==
      m.buffer_hits + m.buffer_attaches + m.buffer_misses) {
    return "";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "pool references %llu != hits %llu + attaches %llu + "
                "misses %llu; ",
                static_cast<unsigned long long>(m.buffer_references),
                static_cast<unsigned long long>(m.buffer_hits),
                static_cast<unsigned long long>(m.buffer_attaches),
                static_cast<unsigned long long>(m.buffer_misses));
  return buf;
}

// --- Run observer ---

struct ObservedRun {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  // ConfigDigest of the run's config
};

// Collects every completed Simulation::Run() through the public
// vod::SetRunObserver stream. Runs finish on runner worker threads, so
// the log is mutex-guarded. While a capacity search is open
// (BeginSearch), each completed probe is also recorded as a span.
class RunLog {
 public:
  explicit RunLog(SpanRecorder* spans) : spans_(spans) {
    vod::SetRunObserver(
        [this](const vod::RunProfile& profile) { OnRun(profile); });
  }
  ~RunLog() { vod::SetRunObserver(nullptr); }

  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  void BeginSearch(int parent_span) {
    std::lock_guard<std::mutex> lock(mutex_);
    probe_parent_ = parent_span;
  }
  void EndSearch() {
    std::lock_guard<std::mutex> lock(mutex_);
    probe_parent_ = kNoSearch;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_.size();
  }
  std::vector<ObservedRun> From(std::size_t first) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<ObservedRun>(runs_.begin() + first, runs_.end());
  }
  // Broken invariants seen since the last call.
  std::string TakeErrors() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string errors;
    errors.swap(errors_);
    return errors;
  }

 private:
  static constexpr int kNoSearch = -2;

  void OnRun(const vod::RunProfile& profile) {
    std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back({profile.wall_seconds, profile.kernel.events_fired,
                     profile.config_digest});
    errors_ += PoolConservation(profile.metrics);
    if (spans_ != nullptr && probe_parent_ != kNoSearch) {
      double end = spans_->Now();
      spans_->Add("vod.runner.probe", probe_parent_,
                  end - profile.wall_seconds, end);
    }
  }

  SpanRecorder* const spans_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<ObservedRun> runs_;
  std::string errors_;
  int probe_parent_ = kNoSearch;
};

// --- Per-layer counts of one run ---

// Registry names read for the per-layer metrics (vod::Simulation's
// metrics registry).
const char* const kRegistryNames[] = {
    "terminal.frames_displayed",   "terminal.requests_sent",
    "terminal.glitches",           "terminal.late_blocks",
    "terminal.late_attrib.network", "terminal.late_attrib.server_cpu",
    "terminal.late_attrib.disk_queue", "terminal.late_attrib.disk_service",
    "pool.references",             "pool.hits",
    "pool.attaches",               "pool.evictions",
    "pool.allocation_stalls",      "pool.wasted_prefetches",
    "prefetch.issued",             "disk.reads",
    "disk.utilization.avg",        "disk.queue_wait_ms.avg",
    "disk.service_ms.avg",         "cpu.utilization.avg",
    "network.avg_bytes_per_sec"};

struct LayerCounts {
  spiffi::obs::KernelProfile kernel;
  std::map<std::string, double> registry;
  std::uint64_t telemetry_samples = 0;
};

LayerCounts ReadCounts(vod::Simulation& sim,
                       const vod::TelemetryRecorder* recorder) {
  LayerCounts counts;
  counts.kernel = spiffi::obs::CaptureKernelProfile(sim.env());
  for (const char* name : kRegistryNames) {
    counts.registry[name] = sim.metrics().Value(name);
  }
  if (recorder != nullptr) {
    counts.telemetry_samples = recorder->series().total_samples();
  }
  return counts;
}

// --- Samples gathered over the repetitions ---

struct Samples {
  std::vector<double> setup;  // Simulation constructor (untraced run)
  // The workload's plain Run(): per repetition, host seconds of each
  // progress slice followed by the tail after the last one (Collect),
  // and the events fired in each slice (identical in every repetition).
  std::vector<std::vector<double>> slice_s;
  std::vector<double> slice_events;
  // search16_grid: per repetition, host seconds of each search.
  std::vector<std::vector<double>> search_s;
  // search16_grid: fastest run wall and events of each distinct probe,
  // keyed by ConfigDigest.
  std::map<std::uint64_t, ObservedRun> probe_best;
  // Traced run.
  std::vector<double> ctor, warmup, reset, measure, collect, library;
  // The anchor's plain Run() with spans on and off (trace overhead).
  std::vector<double> traced_op, untraced_op;
  std::vector<double> telemetry_on, telemetry_off;  // rt_overload64
  std::vector<double> probe_run_s, runs_completed, useful_ratio,
      busy_fraction;
  double probes = 0.0;
  double hold_ns = 0.0;  // calendar hold-model replay
  LayerCounts counts;    // from the traced run's phased operation
};

class Bench {
 public:
  explicit Bench(const BenchOptions& options)
      : options_(options),
        jobs_(RunnerJobs()),
        spans_(options.trace ? std::make_unique<SpanRecorder>(
                                   WorkloadName(options.workload))
                             : nullptr),
        log_(spans_.get()) {}

  BenchResult Run();

 private:
  // The configuration whose construction setup_s times.
  vod::SimConfig AnchorConfig() const;
  bool IsSearch() const {
    return options_.workload == Workload::kSearch16Grid;
  }
  bool HasTelemetry() const {
    return options_.workload == Workload::kRtOverload64;
  }
  // Where spans go: null when untraced or while spans_paused_.
  SpanRecorder* Spans() const {
    return spans_paused_ ? nullptr : spans_.get();
  }

  // One repetition; returns the host seconds of its timed operation.
  double Rep();
  void TimeSetups(const vod::SimConfig& config, int count);
  // construct [+ telemetry] + Run(cancel, out, progress); returns the
  // operation's host seconds. `record_slices` keeps its slice times.
  double PlainRun(const vod::SimConfig& config, bool telemetry,
                  const std::string& kind, bool record_slices);
  // construct [+ telemetry] + RunWarmup / ResetAllStats /
  // RunMeasurement / Collect, each timed and spanned.
  void PhasedRun(const vod::SimConfig& config, bool telemetry,
                 const std::string& kind);
  // The four capacity searches; returns their total host seconds.
  double Grid();
  void AddOp(OpRecord op);

  // At reference host speed; `raw` gets the uncorrected host times.
  std::vector<Metric> EndToEndMetrics(std::vector<Metric>* raw) const;
  std::vector<Metric> LayerMetrics() const;

  const BenchOptions options_;
  const int jobs_;
  std::unique_ptr<SpanRecorder> spans_;  // null unless traced
  bool spans_paused_ = false;
  RunLog log_;
  HostSpeed speed_;
  Samples samples_;
  BenchResult result_;
};

vod::SimConfig Bench::AnchorConfig() const {
  switch (options_.workload) {
    case Workload::kSteady64:
      return Steady64Config(options_.sim_seed, options_.shrink);
    case Workload::kRtOverload64:
      return RtOverload64Config(options_.sim_seed, options_.shrink);
    case Workload::kSearch16Grid:
      break;
  }
  vod::SimConfig config =
      SearchGridConfigs(options_.sim_seed, options_.shrink).front();
  config.terminals = GridSearchOptions(options_.shrink, jobs_).start_guess;
  return config;
}

void Bench::AddOp(OpRecord op) {
  op.error += log_.TakeErrors();
  result_.ops.push_back(std::move(op));
}

void Bench::TimeSetups(const vod::SimConfig& config, int count) {
  for (int i = 0; i < count; ++i) {
    auto start = Clock::now();
    auto sim = std::make_unique<vod::Simulation>(config);
    samples_.setup.push_back(Since(start));
  }
}

double Bench::PlainRun(const vod::SimConfig& config, bool telemetry,
                       const std::string& kind, bool record_slices) {
  ScopedSpan op_span(Spans(), "vod.simulation.run_op");
  auto start = Clock::now();
  std::unique_ptr<vod::Simulation> sim;
  {
    ScopedSpan span(Spans(), "vod.simulation.ctor");
    sim = std::make_unique<vod::Simulation>(config);
  }
  double ctor = Since(start);
  (options_.trace ? samples_.ctor : samples_.setup).push_back(ctor);
  std::unique_ptr<vod::TelemetryRecorder> recorder;
  if (telemetry) {
    ScopedSpan span(Spans(), "obs.telemetry.attach");
    recorder = std::make_unique<vod::TelemetryRecorder>(sim.get(),
                                                        InMemoryTelemetry());
  }
  std::vector<vod::RunProgress> slices;
  vod::ProgressFn progress;
  if (record_slices) {
    progress = [&slices](const vod::RunProgress& p) { slices.push_back(p); };
  }
  OpRecord op;
  op.kind = kind;
  const std::atomic<bool> never_cancelled{false};
  bool completed = false;
  {
    ScopedSpan span(Spans(), "vod.simulation.run");
    completed = sim->Run(never_cancelled, &op.metrics, progress);
  }
  double wall = Since(start);
  if (!completed) op.error += "run did not complete; ";
  AddOp(std::move(op));
  if (record_slices) {
    std::vector<double> seconds;
    std::vector<double> events;
    vod::RunProgress prev;
    for (const vod::RunProgress& p : slices) {
      seconds.push_back(p.wall_seconds - prev.wall_seconds);
      events.push_back(static_cast<double>(p.events_fired - prev.events_fired));
      prev = p;
    }
    seconds.push_back(wall - ctor - prev.wall_seconds);  // tail: Collect
    events.push_back(0.0);
    samples_.slice_s.push_back(std::move(seconds));
    samples_.slice_events = std::move(events);
  }
  return wall;
}

void Bench::PhasedRun(const vod::SimConfig& config, bool telemetry,
                      const std::string& kind) {
  ScopedSpan op_span(spans_.get(), "vod.simulation.phased_op");
  auto timed = [this](const char* name, std::vector<double>* out,
                      const auto& fn) {
    ScopedSpan span(spans_.get(), name);
    auto start = Clock::now();
    fn();
    out->push_back(Since(start));
  };
  std::unique_ptr<vod::Simulation> sim;
  timed("vod.simulation.ctor", &samples_.ctor,
        [&] { sim = std::make_unique<vod::Simulation>(config); });
  std::unique_ptr<vod::TelemetryRecorder> recorder;
  if (telemetry) {
    ScopedSpan span(spans_.get(), "obs.telemetry.attach");
    recorder = std::make_unique<vod::TelemetryRecorder>(sim.get(),
                                                        InMemoryTelemetry());
  }
  OpRecord op;
  op.kind = kind;
  timed("vod.simulation.warmup", &samples_.warmup, [&] { sim->RunWarmup(); });
  timed("vod.simulation.reset", &samples_.reset,
        [&] { sim->ResetAllStats(); });
  timed("vod.simulation.measure", &samples_.measure,
        [&] { sim->RunMeasurement(); });
  timed("vod.simulation.collect", &samples_.collect,
        [&] { op.metrics = sim->Collect(); });
  op.error += PoolConservation(op.metrics);
  samples_.counts = ReadCounts(*sim, recorder.get());
  AddOp(std::move(op));
}

double Bench::Grid() {
  const std::vector<vod::SimConfig> grid =
      SearchGridConfigs(options_.sim_seed, options_.shrink);
  const vod::CapacitySearchOptions search =
      GridSearchOptions(options_.shrink, jobs_);
  ScopedSpan grid_span(spans_.get(), "vod.capacity.grid");
  const std::size_t first_run = log_.size();
  std::vector<double> search_s;
  double path_probes = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    OpRecord op;
    op.kind = "search";
    op.config = static_cast<int>(i);
    const std::size_t before = log_.size();
    auto start = Clock::now();
    {
      ScopedSpan span(spans_.get(), "vod.capacity.search");
      if (spans_ != nullptr) log_.BeginSearch(spans_->Current());
      op.search = vod::FindMaxTerminals(grid[i], search);
      log_.EndSearch();
    }
    search_s.push_back(Since(start));
    std::vector<ObservedRun> runs = log_.From(before);
    if (op.search.probes.size() > runs.size()) {
      op.error += "path probes exceed completed runs; ";
    }
    for (const ObservedRun& run : runs) {
      auto [it, inserted] = samples_.probe_best.emplace(run.digest, run);
      if (!inserted && run.wall_s < it->second.wall_s) it->second = run;
    }
    vod::SimConfig probe = grid[i];
    for (const auto& [terminals, glitches] : op.search.probes) {
      probe.terminals = terminals;
      auto it = samples_.probe_best.find(vod::ConfigDigest(probe));
      if (it != samples_.probe_best.end()) {
        samples_.probe_run_s.push_back(it->second.wall_s);
      }
    }
    path_probes += static_cast<double>(op.search.probes.size());
    AddOp(std::move(op));
  }
  double wall = Sum(search_s);
  samples_.search_s.push_back(std::move(search_s));
  std::vector<ObservedRun> runs = log_.From(first_run);
  double run_wall = 0.0;
  for (const ObservedRun& run : runs) run_wall += run.wall_s;
  samples_.probes = path_probes;
  samples_.runs_completed.push_back(static_cast<double>(runs.size()));
  samples_.useful_ratio.push_back(
      Ratio(path_probes, static_cast<double>(runs.size())));
  samples_.busy_fraction.push_back(Ratio(run_wall, wall * jobs_));
  return wall;
}

double Bench::Rep() {
  ScopedSpan rep_span(spans_.get(), "rep");
  {
    ScopedSpan span(spans_.get(), "bench.host_speed");
    speed_.Sample();
  }
  const vod::SimConfig anchor = AnchorConfig();
  if (!options_.trace) {
    if (IsSearch()) {
      TimeSetups(anchor, kSetupSamplesPerRep);
      return Grid();
    }
    double wall = PlainRun(anchor, HasTelemetry(), "run",
                           /*record_slices=*/true);
    TimeSetups(anchor, kSetupSamplesPerRep - 1);
    return wall;
  }
  const std::string kind = IsSearch() ? "anchor" : "run";
  auto start = Clock::now();
  PhasedRun(anchor, HasTelemetry(), kind);
  {
    ScopedSpan span(spans_.get(), "mpeg.library_replay");
    samples_.library.push_back(LibraryBuildSeconds(anchor));
  }
  double plain = PlainRun(anchor, HasTelemetry(), kind,
                          /*record_slices=*/true);
  samples_.traced_op.push_back(plain);
  {
    // The same operation with no spans inside it.
    ScopedSpan span(spans_.get(), "bench.untraced_op");
    spans_paused_ = true;
    samples_.untraced_op.push_back(
        PlainRun(anchor, HasTelemetry(), kind, /*record_slices=*/true));
    spans_paused_ = false;
  }
  if (HasTelemetry()) {
    samples_.telemetry_on.push_back(plain);
    samples_.telemetry_off.push_back(PlainRun(
        anchor, false, "run_untelemetered", /*record_slices=*/false));
  }
  if (IsSearch()) Grid();
  return Since(start);
}

BenchResult Bench::Run() {
  result_.jobs = jobs_;
  {
    ScopedSpan root(spans_.get(), "workload");
    auto start = Clock::now();
    int reps = 0;
    while (true) {
      double op = Rep();
      ++reps;
      std::fprintf(stderr, "perfbench: rep %d took %.4f s\n", reps, op);
      double elapsed = Since(start);
      if (elapsed + elapsed / reps > options_.seconds) break;
    }
    if (options_.trace) {
      ScopedSpan span(spans_.get(), "sim.calendar.hold_replay");
      samples_.hold_ns = CalendarHoldNs(
          samples_.counts.kernel.peak_calendar_size, options_.sim_seed);
    }
  }
  result_.metrics =
      options_.trace ? LayerMetrics() : EndToEndMetrics(&result_.raw);
  result_.hold_speed = speed_.HoldSpeed();
  result_.draw_speed = speed_.DrawSpeed();
  if (spans_ != nullptr && !options_.spans_out.empty()) {
    std::ofstream out(options_.spans_out);
    if (out) {
      spans_->WriteJson(out, EnvJson(jobs_));
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options_.spans_out.c_str());
    }
  }
  if (spans_ != nullptr) {
    std::fprintf(stderr, "%-28s %6s %10s %10s\n", "span", "count",
                 "total_s", "self_s");
    for (const SpanSummary& s : spans_->Summarize()) {
      std::fprintf(stderr, "%-28s %6d %10.4f %10.4f\n", s.name.c_str(),
                   s.count, s.total_s, s.self_s);
    }
  }
  return result_;
}

std::vector<Metric> Bench::EndToEndMetrics(std::vector<Metric>* raw) const {
  const double setup = Min(samples_.setup);
  double wall = 0.0;
  double run_wall = 0.0;
  double events = 0.0;
  if (IsSearch()) {
    wall = Sum(BestOf(samples_.search_s));
    for (const auto& [digest, run] : samples_.probe_best) {
      run_wall += run.wall_s;
      events += static_cast<double>(run.events);
    }
  } else {
    run_wall = Sum(BestOf(samples_.slice_s));
    wall = setup + run_wall;
    events = Sum(samples_.slice_events);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  *raw = {
      {"wall_s", wall, "s"},
      {"setup_s", setup, "s"},
      {"events_per_s", Ratio(events, run_wall), "1/s"},
  };
  // Host times at reference speed: set-up scales with the draw kernel,
  // event-loop time with the hold kernel.
  const double hold = speed_.HoldSpeed();
  const double draw = speed_.DrawSpeed();
  const double setup_ref = setup * draw;
  const double run_ref = run_wall * hold;
  const double wall_ref = IsSearch() ? wall * hold : setup_ref + run_ref;
  return {
      {"wall_s", wall_ref, "s"},
      {"setup_s", setup_ref, "s"},
      {"events_per_s", Ratio(events, run_ref), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> Bench::LayerMetrics() const {
  const LayerCounts& c = samples_.counts;
  auto reg = [&c](const char* name) { return c.registry.at(name); };
  const double ctor = Min(samples_.ctor);
  const double library = Min(samples_.library);
  const double references = reg("pool.references");
  const double issued = reg("prefetch.issued");
  // Per-event host time of each Run() slice, at its fastest repetition.
  std::vector<double> slice_ns;
  const std::vector<double> best = BestOf(samples_.slice_s);
  for (std::size_t i = 0; i < best.size(); ++i) {
    if (samples_.slice_events[i] > 0.0) {
      slice_ns.push_back(best[i] * 1e9 / samples_.slice_events[i]);
    }
  }
  return {
      {"vod.simulation.ctor_s", ctor, "s"},
      {"vod.simulation.warmup_s", Min(samples_.warmup), "s"},
      {"vod.simulation.reset_s", Min(samples_.reset), "s"},
      {"vod.simulation.measure_s", Min(samples_.measure), "s"},
      {"vod.simulation.collect_s", Min(samples_.collect), "s"},
      {"mpeg.library_build_s", library, "s"},
      {"mpeg.library_share", Ratio(library, ctor), "ratio"},
      {"sim.events_fired", static_cast<double>(c.kernel.events_fired),
       "count"},
      {"sim.peak_calendar_size",
       static_cast<double>(c.kernel.peak_calendar_size), "count"},
      {"sim.calendar_grows", static_cast<double>(c.kernel.calendar_grows),
       "count"},
      {"sim.peak_processes", static_cast<double>(c.kernel.peak_processes),
       "count"},
      {"sim.slice_ns_per_event.p50", Quantile(slice_ns, 0.5), "ns"},
      {"sim.slice_ns_per_event.p90", Quantile(slice_ns, 0.9), "ns"},
      {"sim.calendar.hold_ns", samples_.hold_ns, "ns"},
      {"client.frames_displayed", reg("terminal.frames_displayed"), "count"},
      {"client.requests_sent", reg("terminal.requests_sent"), "count"},
      {"client.glitches", reg("terminal.glitches"), "count"},
      {"client.late_blocks", reg("terminal.late_blocks"), "count"},
      {"client.late_attrib.network", reg("terminal.late_attrib.network"),
       "count"},
      {"client.late_attrib.server_cpu",
       reg("terminal.late_attrib.server_cpu"), "count"},
      {"client.late_attrib.disk_queue",
       reg("terminal.late_attrib.disk_queue"), "count"},
      {"client.late_attrib.disk_service",
       reg("terminal.late_attrib.disk_service"), "count"},
      {"server.pool.references", references, "count"},
      {"server.pool.hit_ratio",
       Ratio(reg("pool.hits") + reg("pool.attaches"), references), "ratio"},
      {"server.pool.evictions", reg("pool.evictions"), "count"},
      {"server.pool.allocation_stalls", reg("pool.allocation_stalls"),
       "count"},
      {"server.prefetch.issued", issued, "count"},
      {"server.prefetch.useful_ratio",
       issued == 0.0 ? 0.0 : 1.0 - reg("pool.wasted_prefetches") / issued,
       "ratio"},
      {"server.disk.reads", reg("disk.reads"), "count"},
      {"server.disk.utilization.avg", reg("disk.utilization.avg"), "ratio"},
      {"server.disk.queue_wait_ms.avg", reg("disk.queue_wait_ms.avg"), "ms"},
      {"server.disk.service_ms.avg", reg("disk.service_ms.avg"), "ms"},
      {"hw.cpu.utilization.avg", reg("cpu.utilization.avg"), "ratio"},
      {"hw.network.avg_bytes_per_sec", reg("network.avg_bytes_per_sec"),
       "B/s"},
      {"obs.telemetry.samples", static_cast<double>(c.telemetry_samples),
       "count"},
      {"obs.telemetry.overhead_ratio",
       HasTelemetry() ? Ratio(Min(samples_.telemetry_on),
                              Min(samples_.telemetry_off)) - 1.0
                      : 0.0,
       "ratio"},
      {"vod.capacity.probes", samples_.probes, "count"},
      {"vod.capacity.probe_run_s.p50", Median(samples_.probe_run_s), "s"},
      {"vod.runner.runs_completed", Median(samples_.runs_completed),
       "count"},
      {"vod.runner.useful_ratio", Median(samples_.useful_ratio), "ratio"},
      {"vod.runner.busy_fraction", Median(samples_.busy_fraction), "ratio"},
      {"bench.trace.overhead_ratio",
       Ratio(Min(samples_.traced_op), Min(samples_.untraced_op)) - 1.0,
       "ratio"},
  };
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSteady64, Workload::kRtOverload64,
                     Workload::kSearch16Grid}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSteady64:
      return "steady64";
    case Workload::kRtOverload64:
      return "rt_overload64";
    case Workload::kSearch16Grid:
      return "search16_grid";
  }
  return "?";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int RunnerJobs() { return std::min(4, Nproc()); }

std::string EnvJson(int jobs) {
  return "{\"nproc\": " + std::to_string(Nproc()) +
         ", \"jobs\": " + std::to_string(jobs) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) + "}";
}

BenchResult RunBenchmark(const BenchOptions& options) {
  Bench bench(options);
  return bench.Run();
}

}  // namespace perfbench
