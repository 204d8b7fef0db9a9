// The benchmark's workloads and the measurement loop around them.
//
// steady64       one paper-scale run (64 disks, 700 terminals, elevator)
// rt_overload64  the same hardware 10% over capacity under real-time
//                scheduling with delayed prefetch and telemetry sampling
// search16_grid  the four Table 2 base configs at 16 disks, one
//                vod::FindMaxTerminals search each
//
// An operation is one simulation run or one capacity search. Each is
// returned as an OpRecord so the caller can compare it against the
// committed reference outputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vod/capacity.h"
#include "vod/metrics.h"

namespace perfbench {

enum class Workload { kSteady64, kRtOverload64, kSearch16Grid };

// False for an unknown name.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

struct BenchOptions {
  Workload workload = Workload::kSteady64;
  std::uint64_t sim_seed = 1;  // SimConfig::seed of every run
  double seconds = 10.0;       // measurement budget
  bool trace = false;          // traced run: per-layer metrics + spans
  bool shrink = false;         // tiny configs, for the benchmark's tests
  std::string spans_out;       // traced run: spans JSON written here
};

struct OpRecord {
  // "run" (the workload's run), "run_untelemetered" (rt_overload64 with
  // sampling off), "anchor" (search16_grid's first config at the start
  // guess) or "search" (one grid point).
  std::string kind;
  int config = -1;    // search: grid index
  std::string error;  // broken invariant or abort; empty when none
  spiffi::vod::SimMetrics metrics;     // run kinds
  spiffi::vod::CapacityResult search;  // search
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct BenchResult {
  int jobs = 1;  // runner workers actually used
  std::vector<OpRecord> ops;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  // Untraced run: the host times behind the end-to-end metrics before
  // the host-speed correction, and the two speeds (see host_speed.h).
  std::vector<Metric> raw;
  double hold_speed = 1.0;
  double draw_speed = 1.0;
};

// CPUs this process may run on (what `nproc` prints).
int Nproc();

// Runner workers search16_grid uses: 4, but never more than Nproc().
int RunnerJobs();

// {"nproc", "jobs", "build_type", "compiler"} of this binary, as JSON;
// every output of the benchmark records it.
std::string EnvJson(int jobs);

// Runs the workload repeatedly for about `options.seconds` host seconds.
BenchResult RunBenchmark(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
