// Simulation-kernel self-profiling (observability layer).
//
// Captures the event loop's own health counters — events dispatched,
// calendar occupancy, storage growth and cost counters, process
// population — from an
// Environment, and writes them (plus wall-clock throughput measured by
// the caller) as a small machine-readable JSON report. Benchmark
// harnesses use this for their --profile mode, producing the
// bench_profile.json datapoints that track kernel performance across
// commits.

#ifndef SPIFFI_OBS_KERNEL_PROFILE_H_
#define SPIFFI_OBS_KERNEL_PROFILE_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "sim/environment.h"

namespace spiffi::obs {

struct KernelProfile {
  std::uint64_t events_fired = 0;       // since Environment construction
  std::size_t calendar_size = 0;        // pending entries right now
  std::size_t peak_calendar_size = 0;   // high-water mark
  std::uint64_t calendar_grows = 0;     // heap storage reallocations
  std::uint64_t lane_fires = 0;         // events fired from the tick lane
  std::uint64_t sift_levels = 0;        // heap levels moved by sifts
  std::size_t live_processes = 0;
  std::size_t peak_processes = 0;
  std::size_t resume_slots = 0;         // pooled coroutine-resume slots
};

KernelProfile CaptureKernelProfile(const sim::Environment& env);

// One self-describing JSON object. `wall_seconds` is the caller-measured
// wall time over which `events_fired` events were dispatched (pass the
// profile of the same Environment); events/sec is derived from the two.
void WriteKernelProfileJson(std::ostream& out, const std::string& name,
                            const KernelProfile& profile,
                            double wall_seconds);

}  // namespace spiffi::obs

#endif  // SPIFFI_OBS_KERNEL_PROFILE_H_
