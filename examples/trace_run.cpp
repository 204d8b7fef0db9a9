// Trace a simulation run.
//
// Independent outputs, any combination:
//   * stdout          — CSV time series of system state (disk queues,
//                       glitches, priming terminals, pool occupancy,
//                       network traffic), cumulative + per-interval
//                       columns
//   * --jsonl-out     — the same snapshots streamed as JSONL, one
//                       object per sampling interval (full channel set)
//   * --trace-out     — Chrome trace_event JSON of the full block-request
//                       lifecycle (terminal -> network -> server -> disk
//                       -> back), loadable in Perfetto / chrome://tracing
//   * --metrics-out   — metrics-registry JSON (every counter, tally,
//                       histogram and quantile sketch, including deadline
//                       slack and glitch attribution)
//   * --report-out    — one-line machine-readable run report (JSONL;
//                       config digest, wall/sim time, headline metrics),
//                       rendered by tools/run_report.py
//
//   ./trace_run [--<knob>=VALUE ...] [--trace-out=FILE.json]
//               [--metrics-out=FILE.json] [--jsonl-out=FILE.jsonl]
//               [--report-out=FILE.jsonl] [--interval=SEC]
//               [--retention=N] [--trace-capacity=N] [--no-csv]
//               > trace.csv
//
//   --<knob>=VALUE       sets any SimConfig knob by its vod/config_knobs.h
//                        key, e.g. --terminals=400, --disk_sched=real-time,
//                        --fault_plan.disk_mtbf_sec=600,
//                        --measure_seconds=30 (defaults: the paper base
//                        configuration with 250 terminals, 512 MB server
//                        memory and love-prefetch replacement). Enums and
//                        bools take names (false/true); the fault script
//                        is comma-separated time:kind:target:factor
//                        actions. A run report's `config_knobs` field,
//                        each token prefixed with --, replays its run.
//   --interval=SEC       sampling interval (default 1.0; 0 disables
//                        telemetry sampling entirely — used by the CI
//                        overhead check)
//   --retention=N        keep only the most recent N snapshots in memory
//                        (0 = all; streaming outputs are unaffected)
//   --trace-capacity=N   trace ring capacity in events (default 256k;
//                        the ring keeps the most recent N events)
//   --no-csv             suppress the stdout CSV
//
// A bare positional number is still accepted as the terminal count.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "vod/config_knobs.h"
#include "vod/report.h"
#include "vod/telemetry.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  spiffi::vod::SimConfig config;
  config.terminals = 250;
  config.server_memory_bytes = 512LL * 1024 * 1024;
  config.replacement = spiffi::server::ReplacementPolicy::kLovePrefetch;

  std::string trace_out;
  std::string metrics_out;
  std::string jsonl_out;
  std::string report_out;
  double interval = 1.0;
  std::size_t retention = 0;
  std::size_t trace_capacity = 256 * 1024;
  bool write_csv = true;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    std::string error;
    if (ParseFlag(argv[i], "--trace-out", &value)) {
      trace_out = value;
    } else if (ParseFlag(argv[i], "--metrics-out", &value)) {
      metrics_out = value;
    } else if (ParseFlag(argv[i], "--jsonl-out", &value)) {
      jsonl_out = value;
    } else if (ParseFlag(argv[i], "--report-out", &value)) {
      report_out = value;
    } else if (ParseFlag(argv[i], "--interval", &value)) {
      interval = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--retention", &value)) {
      retention = static_cast<std::size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--trace-capacity", &value)) {
      trace_capacity = static_cast<std::size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--no-csv") == 0) {
      write_csv = false;
    } else if (argv[i][0] != '-') {  // legacy positional terminal count
      error = spiffi::vod::SetConfigKnob(&config, "terminals", argv[i]);
    } else if (const char* eq = std::strchr(argv[i], '=');
               std::strncmp(argv[i], "--", 2) == 0 && eq != nullptr) {
      error = spiffi::vod::SetConfigKnob(
          &config, std::string_view(argv[i] + 2, eq - argv[i] - 2), eq + 1);
    } else {
      error = "unknown argument";
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s: %s\n", argv[i], error.c_str());
      return 1;
    }
  }

  std::string error = config.Validate();
  if (!error.empty()) {
    std::fprintf(stderr, "bad configuration: %s\n", error.c_str());
    return 1;
  }
  if (interval < 0.0) {
    std::fprintf(stderr, "bad --interval: must be >= 0\n");
    return 1;
  }
  std::fprintf(stderr, "tracing %d terminals: %s\n", config.terminals,
               config.Describe().c_str());

  spiffi::vod::Simulation simulation(config);
  if (!trace_out.empty()) simulation.EnableTracing(trace_capacity);

  std::ofstream jsonl_file;
  if (!jsonl_out.empty()) {
    jsonl_file.open(jsonl_out);
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_out.c_str());
      return 1;
    }
  }
  std::unique_ptr<spiffi::vod::TelemetryRecorder> telemetry;
  if (interval > 0.0) {
    spiffi::vod::TelemetryOptions options;
    options.interval_sec = interval;
    options.retention = retention;
    options.jsonl = jsonl_file.is_open() ? &jsonl_file : nullptr;
    telemetry = std::make_unique<spiffi::vod::TelemetryRecorder>(
        &simulation, options);
  }

  auto wall_start = std::chrono::steady_clock::now();
  spiffi::vod::SimMetrics metrics = simulation.Run();
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  if (telemetry != nullptr && write_csv) {
    telemetry->series().WriteCsv(std::cout);
  }
  if (jsonl_file.is_open()) {
    jsonl_file.close();
    std::fprintf(stderr, "wrote telemetry JSONL to %s\n",
                 jsonl_out.c_str());
  }

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    simulation.env().tracer()->WriteChromeJson(out);
    std::fprintf(stderr, "wrote Chrome trace to %s (%zu events, %llu "
                 "dropped)\n",
                 trace_out.c_str(), simulation.env().tracer()->size(),
                 static_cast<unsigned long long>(
                     simulation.env().tracer()->dropped()));
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    simulation.metrics().WriteJson(out);
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", report_out.c_str());
      return 1;
    }
    spiffi::vod::RunReport report;
    report.label = "trace_run";
    report.config_summary = config.Describe();
    report.config_digest = spiffi::vod::ConfigDigest(config);
    report.config_knobs = spiffi::vod::FormatConfig(config);
    report.seed = config.seed;
    report.terminals = config.terminals;
    report.sim_seconds = config.warmup_seconds + config.measure_seconds;
    report.wall_seconds = wall_seconds;
    report.events_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(metrics.events_simulated) / wall_seconds
            : 0.0;
    report.metrics = metrics;
    report.telemetry_path = jsonl_out;
    spiffi::vod::WriteRunReportJson(out, report);
    std::fprintf(stderr, "wrote run report to %s\n", report_out.c_str());
  }

  std::fprintf(stderr,
               "done: %llu glitches, %.0f%% disk utilization, %zu "
               "samples, %.2fs wall\n",
               static_cast<unsigned long long>(metrics.glitches),
               metrics.avg_disk_utilization * 100,
               telemetry != nullptr ? telemetry->series().size()
                                    : static_cast<std::size_t>(0),
               wall_seconds);
  return 0;
}
