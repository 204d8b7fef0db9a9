// Layer replays: host-time numbers for the two hot spots the benchmark
// tracks, measured outside a simulation so no instrumentation inside the
// program is needed.

#ifndef PERFBENCH_REPLAYS_H_
#define PERFBENCH_REPLAYS_H_

#include <cstddef>
#include <cstdint>

#include "vod/config.h"

namespace perfbench {

// Nanoseconds per hold operation (FireNext of the earliest entry, then
// Schedule of a replacement at now + Exp(1)) on a sim::Calendar kept at
// `occupancy` pending entries — the classic hold model, run at the peak
// calendar size a simulation measured. Fastest of a few timed batches.
double CalendarHoldNs(std::size_t occupancy, std::uint64_t seed);

// Host seconds to construct the mpeg::VideoLibrary that a Simulation of
// `config` builds (same count, duration, MPEG parameters and Zipf skew).
double LibraryBuildSeconds(const spiffi::vod::SimConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAYS_H_
