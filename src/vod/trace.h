// Legacy time-series tracing view, kept for compatibility: samples
// system state at a fixed simulated-time interval while a Simulation
// runs, for plotting transient behaviour (warmup, saturation onset,
// glitch storms).
//
//   vod::Simulation sim(config);
//   vod::TraceRecorder trace(&sim, /*interval=*/1.0);
//   sim.Run();
//   trace.WriteCsv(std::cout);
//
// TraceRecorder is now a thin adapter over the streaming telemetry
// subsystem (vod/telemetry.h): the channels it reads are registered in
// an obs::TimeSeries and sampled by TelemetryRecorder's sim-process
// sampler; this class only re-shapes the retained snapshots into the
// historical CSV layout. New code should use TelemetryRecorder
// directly — it exposes more channels, JSONL streaming, and bounded
// ring retention.
//
// Counter semantics are explicit: cumulative readings carry a `_total`
// suffix and per-interval changes a `_delta` suffix, both in the sample
// struct and the CSV header (the pre-telemetry recorder mixed a
// cumulative `glitches` with a per-interval `network_bytes`).
//
// The recorder must be constructed before the simulation runs; it spawns
// a sampling process into the simulation's environment.

#ifndef SPIFFI_VOD_TRACE_H_
#define SPIFFI_VOD_TRACE_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "vod/telemetry.h"

namespace spiffi::vod {

struct TraceSample {
  double time = 0.0;
  int disks_busy = 0;          // disks servicing a request right now
  int total_disks = 0;
  double disk_queue_avg = 0.0; // mean disk queue length
  int cpus_busy = 0;
  std::uint64_t glitches_total = 0;  // cumulative terminal glitches
  std::uint64_t glitches_delta = 0;  // glitches since the previous sample
  int terminals_priming = 0;   // terminals (re)filling buffers
  int terminals_playing = 0;
  std::int64_t pool_pages_in_use = 0;      // summed over nodes
  std::uint64_t network_bytes_total = 0;   // cumulative network traffic
  std::uint64_t network_bytes_delta = 0;   // since the previous sample
};

class TraceRecorder {
 public:
  // Samples every `interval_sec` of simulated time until the simulation
  // stops. Construct after the Simulation, before running it.
  TraceRecorder(Simulation* simulation, double interval_sec);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Snapshots re-shaped into the legacy sample struct. Each call
  // rebuilds every sample from the underlying time series — O(rows) —
  // and returns a fresh copy: bind the result once rather than calling
  // this repeatedly.
  std::vector<TraceSample> samples() const;

  // The backing telemetry channels (JSONL export, extra channels).
  const obs::TimeSeries& series() const { return telemetry_.series(); }

  // Writes a CSV with a header row.
  void WriteCsv(std::ostream& out) const;

 private:
  TelemetryRecorder telemetry_;
};

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_TRACE_H_
