// perfbench: runs one benchmark workload and prints one JSON object —
// the environment, every operation's simulated outputs (for the
// reference check run.py makes), the host speeds with the uncorrected
// host times, and the measured metrics.
//
//   perfbench --workload steady64 --sim-seed 1 --seconds 10 [--trace]
//             [--shrink] [--spans-out PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::BenchOptions;
using perfbench::BenchResult;
using perfbench::OpRecord;

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "steady64|rt_overload64|search16_grid --sim-seed N "
               "--seconds S [--trace] [--shrink] [--spans-out PATH]\n",
               problem);
  std::exit(2);
}

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      if (!perfbench::ParseWorkload(value(), &options.workload)) {
        Usage("unknown workload");
      }
      have_workload = true;
    } else if (arg == "--sim-seed") {
      options.sim_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--shrink") {
      options.shrink = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return options;
}

void PrintString(const std::string& s) {
  std::fputs(perfbench::JsonString(s).c_str(), stdout);
}

// Exact decimal form of a double (round-trips through any JSON parser).
void PrintNumber(double value) { std::printf("%.17g", value); }

void PrintCount(std::uint64_t value) {
  std::printf("%llu", static_cast<unsigned long long>(value));
}

// {"name": {"value": v, "unit": u}, ...}
void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintString(metrics[i].name);
    std::printf(": {\"value\": ");
    PrintNumber(metrics[i].value);
    std::printf(", \"unit\": ");
    PrintString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}");
}

// The SimMetrics fields the reference outputs pin down.
void PrintRunFields(const spiffi::vod::SimMetrics& m) {
  struct Field {
    const char* name;
    double real;
    std::uint64_t count;
    bool is_count;
  };
  const Field fields[] = {
      {"terminals", 0, static_cast<std::uint64_t>(m.terminals), true},
      {"measured_seconds", m.measured_seconds, 0, false},
      {"events_simulated", 0, m.events_simulated, true},
      {"glitches", 0, m.glitches, true},
      {"terminals_with_glitches", 0,
       static_cast<std::uint64_t>(m.terminals_with_glitches), true},
      {"frames_displayed", 0, m.frames_displayed, true},
      {"videos_completed", 0, m.videos_completed, true},
      {"buffer_references", 0, m.buffer_references, true},
      {"buffer_hits", 0, m.buffer_hits, true},
      {"buffer_attaches", 0, m.buffer_attaches, true},
      {"buffer_misses", 0, m.buffer_misses, true},
      {"shared_references", 0, m.shared_references, true},
      {"wasted_prefetches", 0, m.wasted_prefetches, true},
      {"prefetches_issued", 0, m.prefetches_issued, true},
      {"disk_reads", 0, m.disk_reads, true},
      {"avg_disk_utilization", m.avg_disk_utilization, 0, false},
      {"min_disk_utilization", m.min_disk_utilization, 0, false},
      {"max_disk_utilization", m.max_disk_utilization, 0, false},
      {"avg_cpu_utilization", m.avg_cpu_utilization, 0, false},
      {"peak_network_bytes_per_sec", m.peak_network_bytes_per_sec, 0, false},
      {"avg_network_bytes_per_sec", m.avg_network_bytes_per_sec, 0, false},
      {"avg_disk_service_ms", m.avg_disk_service_ms, 0, false},
      {"avg_seek_cylinders", m.avg_seek_cylinders, 0, false},
      {"avg_response_ms", m.avg_response_ms, 0, false},
      {"p50_response_ms", m.p50_response_ms, 0, false},
      {"p99_response_ms", m.p99_response_ms, 0, false},
  };
  std::printf("{");
  for (std::size_t i = 0; i < sizeof(fields) / sizeof(fields[0]); ++i) {
    if (i > 0) std::printf(", ");
    PrintString(fields[i].name);
    std::printf(": ");
    if (fields[i].is_count) {
      PrintCount(fields[i].count);
    } else {
      PrintNumber(fields[i].real);
    }
  }
  std::printf("}");
}

void PrintOp(const OpRecord& op) {
  std::printf("{\"kind\": ");
  PrintString(op.kind);
  std::printf(", \"error\": ");
  PrintString(op.error);
  if (op.kind == "search") {
    std::printf(", \"config\": %d, \"max_terminals\": %d, \"probes\": [",
                op.config, op.search.max_terminals);
    for (std::size_t i = 0; i < op.search.probes.size(); ++i) {
      std::printf("%s[%d, ", i == 0 ? "" : ", ", op.search.probes[i].first);
      PrintCount(op.search.probes[i].second);
      std::printf("]");
    }
    std::printf("]");
  } else {
    std::printf(", \"fields\": ");
    PrintRunFields(op.metrics);
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = ParseArgs(argc, argv);
  const BenchResult result = perfbench::RunBenchmark(options);

  std::printf("{\"workload\": ");
  PrintString(perfbench::WorkloadName(options.workload));
  std::printf(", \"sim_seed\": ");
  PrintCount(options.sim_seed);
  std::printf(", \"trace\": %s, \"shrink\": %s",
              options.trace ? "true" : "false",
              options.shrink ? "true" : "false");
  std::printf(", \"env\": %s, \"ops\": [",
              perfbench::EnvJson(result.jobs).c_str());
  for (std::size_t i = 0; i < result.ops.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintOp(result.ops[i]);
  }
  std::printf("], \"host\": {\"hold_speed\": ");
  PrintNumber(result.hold_speed);
  std::printf(", \"draw_speed\": ");
  PrintNumber(result.draw_speed);
  std::printf(", \"raw\": ");
  PrintMetrics(result.raw);
  std::printf("}, \"metrics\": ");
  PrintMetrics(result.metrics);
  std::printf("}\n");
  return 0;
}
