// Shared helpers for the reproduction harnesses (one binary per paper
// table/figure), each a vod::Sweep spec run by RunSweep below.
//
// Each harness runs in a "fast" preset by default: shorter measurement
// windows and coarser capacity-search steps than the paper's
// 90%-confidence runs, chosen so the full suite completes in minutes on
// one core while preserving every qualitative shape. Set
// SPIFFI_BENCH_FULL=1 for paper-scale windows, or SPIFFI_BENCH_SMOKE=1
// for a seconds-long smoke pass.

#ifndef SPIFFI_BENCH_BENCH_COMMON_H_
#define SPIFFI_BENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpeg/library_cache.h"
#include "obs/kernel_profile.h"
#include "vod/config.h"
#include "vod/config_knobs.h"
#include "vod/metrics.h"
#include "vod/report.h"
#include "vod/runner.h"
#include "vod/simulation.h"
#include "vod/sweep.h"
#include "vod/table.h"

namespace spiffi::bench {

enum class Preset { kSmoke, kFast, kFull };

// Command-line preset override: --smoke / --full on any harness binary
// select the preset directly, above SPIFFI_BENCH_SMOKE / _FULL.
inline std::optional<Preset>& PresetOverride() {
  static std::optional<Preset> preset;
  return preset;
}

inline Preset ActivePreset() {
  if (PresetOverride()) return *PresetOverride();
  const char* full = std::getenv("SPIFFI_BENCH_FULL");
  if (full != nullptr && full[0] == '1') return Preset::kFull;
  const char* smoke = std::getenv("SPIFFI_BENCH_SMOKE");
  if (smoke != nullptr && smoke[0] == '1') return Preset::kSmoke;
  return Preset::kFast;
}

inline const char* PresetName(Preset preset) {
  constexpr const char* kNames[] = {"smoke", "fast", "full"};  // enum order
  return kNames[static_cast<int>(preset)];
}

// Paper base configuration (§7): 4 processors x 4 disks, 64 one-hour
// videos, 512 KB stripe, Zipfian z=1, 2 MB terminals, with run-control
// windows set from the active preset.
inline vod::SimConfig BaseConfig(Preset preset) {
  vod::SimConfig config;
  switch (preset) {
    case Preset::kSmoke:
      config.start_window_sec = 20.0;
      config.warmup_seconds = 30.0;
      config.measure_seconds = 30.0;
      break;
    case Preset::kFast:
      config.start_window_sec = 60.0;
      config.warmup_seconds = 100.0;
      config.measure_seconds = 120.0;
      break;
    case Preset::kFull:
      config.start_window_sec = 60.0;
      config.warmup_seconds = 240.0;
      config.measure_seconds = 600.0;
      break;
  }
  return config;
}

// --- Parallel execution (--jobs mode) ---
//
// Every capacity search and fixed-count grid in the harnesses runs
// through the parallel experiment runner. The job count comes from --jobs N (or
// --jobs=N), else the SPIFFI_JOBS environment variable, else
// hardware_concurrency; --jobs 1 is one worker with no speculation.
// Results are identical for every value (see docs/parallel_runs.md).

// The raw setting: 0 = default (sim::DefaultJobs()), n >= 1 = exactly n.
inline int& JobsSetting() {
  static int jobs = 0;
  return jobs;
}

// The resolved worker count the harness will actually use.
inline int ActiveJobs() { return vod::ResolveJobs(JobsSetting()); }

inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("=== %s (%s) — preset: %s ===\n", experiment, paper_ref,
              PresetName(ActivePreset()));
}

// --- Kernel self-profiling (--profile mode) ---
//
// With profiling enabled, every Simulation::Run() executed by the
// harness reports its kernel self-profile through the vod run observer;
// at process exit the collected profiles — per run and in total — are
// written as JSON to bench_profile.json (or the --profile=PATH target).
// With --jobs > 1 runs finish on ParallelRunner worker threads, so the
// collector is mutex-guarded, and the report distinguishes the summed
// per-run wall time from the elapsed wall time of the whole harness —
// their ratio is the achieved parallel speedup. `library_builds` counts
// the video libraries the process built (mpeg/library_cache.h): one per
// replication seed per distinct library key of a sweep, capacity or
// fixed-count, not one per probe or run. `runs` counts every executed run, speculative ones included;
// --report writes the realized runs only, so report lines / `runs` is
// the share of the work the results rest on.
// `library_draws` counts the frame sizes those builds drew, an exact
// host-independent measure of set-up work; `library_fallback_draws`
// counts those the batch kernel redrew on the exact scalar path.
// `total_frame_window_refills` counts the terminals' display-loop draws
// of kDrawBlock frame sizes, and `total_display_scalar_draws` the sizes
// among them that took the scalar path (mpeg/frame_window.h).

struct ProfileCollector {
  std::string harness = "bench";
  std::string path = "bench_profile.json";          // --profile
  std::string report_path = "bench_report.jsonl";  // --report
  std::mutex mutex;  // runs arrive concurrently from worker threads
  std::vector<vod::RunProfile> runs;
  // ConfigDigest of each run the harness's results rest on, in result
  // order (NoteRealizedRuns); written by the main thread only.
  std::vector<std::uint64_t> realized;
  std::chrono::steady_clock::time_point start;
};

inline ProfileCollector& Profiler() {
  static ProfileCollector collector;
  return collector;
}

inline void WriteProfileReport() {
  ProfileCollector& collector = Profiler();
  std::ofstream out(collector.path);
  if (!out) {
    std::fprintf(stderr, "profile: cannot write %s\n",
                 collector.path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(collector.mutex);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - collector.start)
                       .count();
  double wall = 0.0;
  std::uint64_t events = 0;
  std::uint64_t lane_fires = 0;
  std::uint64_t sift_levels = 0;
  std::uint64_t window_refills = 0;
  std::uint64_t display_scalar_draws = 0;
  for (const vod::RunProfile& run : collector.runs) {
    wall += run.wall_seconds;
    events += run.kernel.events_fired;
    lane_fires += run.kernel.lane_fires;
    sift_levels += run.kernel.sift_levels;
    window_refills += run.frame_window_refills;
    display_scalar_draws += run.display_scalar_draws;
  }
  double speedup = elapsed > 0.0 ? wall / elapsed : 0.0;
  const mpeg::LibraryCacheStats library = mpeg::GetLibraryCacheStats();
  out << "{\n  \"harness\": \"" << collector.harness << "\",\n"
      << "  \"jobs\": " << ActiveJobs() << ",\n"
      << "  \"runs\": " << collector.runs.size() << ",\n"
      << "  \"total_wall_seconds\": " << wall << ",\n"
      << "  \"elapsed_wall_seconds\": " << elapsed << ",\n"
      << "  \"parallel_speedup\": " << speedup << ",\n"
      << "  \"total_events\": " << events << ",\n"
      << "  \"total_lane_fires\": " << lane_fires << ",\n"
      << "  \"total_sift_levels\": " << sift_levels << ",\n"
      << "  \"total_frame_window_refills\": " << window_refills << ",\n"
      << "  \"total_display_scalar_draws\": " << display_scalar_draws
      << ",\n"
      << "  \"library_builds\": " << library.builds << ",\n"
      << "  \"library_draws\": " << library.draws << ",\n"
      << "  \"library_fallback_draws\": " << library.fallback_draws << ",\n"
      << "  \"events_per_sec\": " << (wall > 0.0 ? events / wall : 0.0)
      << ",\n  \"per_run\": [";
  for (std::size_t i = 0; i < collector.runs.size(); ++i) {
    const vod::RunProfile& run = collector.runs[i];
    if (i > 0) out << ",";
    out << "\n    ";
    obs::WriteKernelProfileJson(
        out, collector.harness + "/run" + std::to_string(i), run.kernel,
        run.wall_seconds);
  }
  out << "\n  ]\n}\n";
  std::printf(
      "profile: wrote %s (%zu runs, %.2fs run wall / %.2fs elapsed, "
      "%.2fx parallel, %.0f events/s)\n",
      collector.path.c_str(), collector.runs.size(), wall, elapsed,
      speedup, wall > 0.0 ? events / wall : 0.0);
}

// Notes the runs of `config` at `terminals`, seeds config.seed onward
// over `replications`, as realized: --report writes these, in the order
// noted, so two invocations write the same lines.
inline void NoteRealizedRuns(vod::SimConfig config, int terminals,
                             int replications) {
  config.terminals = terminals;
  for (int r = 0; r < replications; ++r, ++config.seed) {
    Profiler().realized.push_back(vod::ConfigDigest(config));
  }
}

// --- Sweeps at the active preset ---

// vod::RunSweep (vod/sweep.h) from BaseConfig(preset) and the preset's
// search start guess, step, ceiling and replications at --jobs, with
// each cell's realized runs noted for --report in cell order.
inline vod::Grid RunSweep(const vod::Sweep& spec) {
  const Preset preset = ActivePreset();
  vod::CapacitySearchOptions search;
  search.start_guess = 200;
  search.max_terminals = 2000;
  search.step = preset == Preset::kSmoke ? 20 : 5;
  search.replications = preset == Preset::kFull ? 3 : 1;
  search.jobs = JobsSetting();
  vod::Grid grid = vod::RunSweep(spec, BaseConfig(preset), search);
  for (const std::vector<vod::Cell>& row : grid) {
    for (const vod::Cell& cell : row) {
      for (const auto& [terminals, glitches] : cell.probes) {
        NoteRealizedRuns(cell.config, terminals, cell.replications);
      }
    }
  }
  return grid;
}

// The aggregate server memory sweep of Figs 11-16 and 19.
inline std::vector<vod::SweepPoint> MemoryAxis(std::vector<std::int64_t> mb) {
  return vod::SizeAxis("server_memory_bytes", std::move(mb), hw::kMiB, "MB");
}

// One point of the §7.6 scaleup: 4 CPUs throughout and 16 * s disks,
// labelled by the disk count, with the server memory scaled from
// `memory_mb` at 16 disks. The search's start guess scales too, and so
// does its step outside the full preset: coarser steps at scale keep
// the big searches affordable.
inline vod::SweepPoint ScalePoint(int s, std::int64_t memory_mb) {
  return {std::to_string(16 * s),
          {"num_nodes=4", vod::Token("disks_per_node", 4 * s),
           vod::Token("server_memory_bytes", memory_mb * s * hw::kMiB)},
          {200 * s, ActivePreset() == Preset::kFull ? 5 : 5 * s}};
}

// Writes one vod::RunReport JSON object per realized run (JSONL).
inline void WriteRunReports() {
  ProfileCollector& collector = Profiler();
  std::ofstream out(collector.report_path);
  if (!out) {
    std::fprintf(stderr, "report: cannot write %s\n",
                 collector.report_path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(collector.mutex);
  std::unordered_map<std::uint64_t, const vod::RunProfile*> by_digest;
  for (const vod::RunProfile& run : collector.runs) {
    by_digest.emplace(run.config_digest, &run);
  }
  for (std::size_t i = 0; i < collector.realized.size(); ++i) {
    // A realized run always ran to completion, so the observer saw it.
    const vod::RunProfile& run = *by_digest.at(collector.realized[i]);
    vod::RunReport report;
    report.label = collector.harness + "/run" + std::to_string(i);
    report.config_summary = run.config_summary;
    report.config_digest = run.config_digest;
    report.config_knobs = run.config_knobs;
    report.seed = run.seed;
    report.terminals = run.terminals;
    report.sim_seconds = run.sim_seconds;
    report.wall_seconds = run.wall_seconds;
    report.events_per_sec =
        run.wall_seconds > 0.0
            ? static_cast<double>(run.kernel.events_fired) / run.wall_seconds
            : 0.0;
    report.metrics = run.metrics;
    vod::WriteRunReportJson(out, report);
  }
  std::printf("report: wrote %s (%zu runs)\n", collector.report_path.c_str(),
              collector.realized.size());
}

// --- Live fleet progress (--progress mode) ---
//
// A detached printer thread samples ParallelRunner::SnapshotAllRunners()
// every few seconds and emits a one-line fleet status to stderr:
// completed/submitted runs, simulated-time completion fraction, event
// throughput, and an ETA extrapolated from the sim-seconds completed per
// wall second so far. Costs nothing when off; the runs themselves are
// untouched either way.

struct ProgressPrinter {
  double interval_sec = 2.0;
  std::atomic<bool> stop{false};
  std::thread thread;
  std::chrono::steady_clock::time_point start;
};

inline ProgressPrinter& Progress() {
  static ProgressPrinter printer;
  return printer;
}

inline void ProgressThreadMain() {
  ProgressPrinter& printer = Progress();
  std::uint64_t last_events = 0;
  auto last_sample = printer.start;
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(printer.interval_sec));
  auto next_print = printer.start + interval;
  while (!printer.stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto now = std::chrono::steady_clock::now();
    if (now < next_print) continue;
    next_print = now + interval;
    vod::ParallelRunner::FleetProgress fleet =
        vod::ParallelRunner::SnapshotAllRunners();
    double elapsed =
        std::chrono::duration<double>(now - printer.start).count();
    double tick = std::chrono::duration<double>(now - last_sample).count();
    double rate = tick > 0.0 && fleet.events_fired >= last_events
                      ? static_cast<double>(fleet.events_fired - last_events) /
                            tick
                      : 0.0;
    last_events = fleet.events_fired;
    last_sample = now;
    double fraction = fleet.target_sim_seconds > 0.0
                          ? fleet.done_sim_seconds / fleet.target_sim_seconds
                          : 0.0;
    double eta = fraction > 0.0 && fraction < 1.0
                     ? elapsed * (1.0 - fraction) / fraction
                     : 0.0;
    std::fprintf(
        stderr,
        "[progress] %llu/%llu runs done, %llu running, %.1f%% sim-time, "
        "%.2fM ev/s, elapsed %.0fs, ETA %.0fs\n",
        static_cast<unsigned long long>(fleet.completed),
        static_cast<unsigned long long>(fleet.submitted),
        static_cast<unsigned long long>(fleet.running), fraction * 100.0,
        rate / 1e6, elapsed, eta);
  }
}

inline void StopProgress() {
  ProgressPrinter& printer = Progress();
  printer.stop.store(true, std::memory_order_relaxed);
  if (printer.thread.joinable()) printer.thread.join();
}

inline void EnableProgress(double interval_sec) {
  ProgressPrinter& printer = Progress();
  if (interval_sec > 0.0) printer.interval_sec = interval_sec;
  printer.start = std::chrono::steady_clock::now();
  printer.thread = std::thread(ProgressThreadMain);
  std::atexit(StopProgress);
}

// The harness label: the binary's file name.
inline std::string HarnessName(int argc, char** argv) {
  if (argc == 0 || argv[0] == nullptr) return "bench";
  return std::filesystem::path(argv[0]).filename().string();
}

// True when `flag` or `flag=VALUE` is among the arguments, or the
// environment variable `env` starts with '1'. *value receives the last
// VALUE given ("" for none).
inline bool FlagOrEnv(int argc, char** argv, const char* flag,
                      const char* env, std::string* value) {
  value->clear();
  const char* setting = std::getenv(env);
  bool enabled = setting != nullptr && setting[0] == '1';
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) != 0) continue;
    if (argv[i][len] == '\0') {
      enabled = true;
    } else if (argv[i][len] == '=') {
      enabled = true;
      *value = argv[i] + len + 1;
    }
  }
  return enabled;
}

// Call first thing in main: parses --smoke/--full, --jobs, and
//   --profile[=PATH]  (or SPIFFI_BENCH_PROFILE=1): kernel self-profile
//                     JSON of every run;
//   --report[=PATH]   (or SPIFFI_BENCH_REPORT=1): one machine-readable
//                     report line per realized run, rendered by
//                     tools/run_report.py;
//   --progress[=SEC]  (or SPIFFI_BENCH_PROGRESS=1): fleet status on
//                     stderr every SEC seconds (default 2).
inline void InitHarness(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) PresetOverride() = Preset::kSmoke;
    if (std::strcmp(argv[i], "--full") == 0) PresetOverride() = Preset::kFull;
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      JobsSetting() = std::atoi(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      JobsSetting() = std::atoi(argv[i] + 7);
    }
  }
  ProfileCollector& collector = Profiler();
  collector.harness = HarnessName(argc, argv);
  std::string value;
  bool collect = false;
  if (FlagOrEnv(argc, argv, "--profile", "SPIFFI_BENCH_PROFILE", &value)) {
    if (!value.empty()) collector.path = value;
    std::atexit(WriteProfileReport);
    collect = true;
  }
  if (FlagOrEnv(argc, argv, "--report", "SPIFFI_BENCH_REPORT", &value)) {
    if (!value.empty()) collector.report_path = value;
    std::atexit(WriteRunReports);
    collect = true;
  }
  // Both feed off the same run-observer stream.
  if (collect) {
    collector.start = std::chrono::steady_clock::now();
    vod::SetRunObserver([](const vod::RunProfile& profile) {
      ProfileCollector& sink = Profiler();
      std::lock_guard<std::mutex> lock(sink.mutex);
      sink.runs.push_back(profile);
    });
  }
  if (FlagOrEnv(argc, argv, "--progress", "SPIFFI_BENCH_PROGRESS", &value)) {
    EnableProgress(std::atof(value.c_str()));
  }
}

}  // namespace spiffi::bench

#endif  // SPIFFI_BENCH_BENCH_COMMON_H_
