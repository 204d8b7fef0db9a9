// Streaming run telemetry: wires a Simulation's components into an
// obs::TimeSeries and samples them at a fixed simulated-time interval.
//
//   vod::Simulation sim(config);
//   vod::TelemetryOptions options;
//   options.interval_sec = 1.0;
//   options.jsonl = &jsonl_file;        // stream snapshots as taken
//   options.retention = 600;            // keep 10 min in memory
//   vod::TelemetryRecorder telemetry(&sim, options);
//   sim.Run();
//   telemetry.series().WriteCsv(std::cout);
//
// The recorder registers one channel per component family — disks,
// CPUs, buffer pools, network, terminals, and (when a FaultPlan is
// active) the fault injector — and spawns a sampler process into the
// simulation's environment, so sampling happens in simulated time and
// is deterministic for a given (config, seed): the emitted JSONL is
// byte-identical at any --jobs count (locked by
// tests/vod/telemetry_test.cc).
//
// Construct after the Simulation, before running it.

#ifndef SPIFFI_VOD_TELEMETRY_H_
#define SPIFFI_VOD_TELEMETRY_H_

#include <cstddef>
#include <ostream>

#include "obs/time_series.h"
#include "sim/process.h"
#include "vod/simulation.h"

namespace spiffi::vod {

struct TelemetryOptions {
  // Simulated seconds between snapshots (> 0).
  double interval_sec = 1.0;
  // In-memory flight-recorder ring: most recent N snapshots
  // (0 = keep every snapshot).
  std::size_t retention = 0;
  // Optional stream that receives each snapshot as a JSONL line the
  // moment it is taken; must outlive the simulation run.
  std::ostream* jsonl = nullptr;
};

class TelemetryRecorder {
 public:
  TelemetryRecorder(Simulation* simulation, const TelemetryOptions& options);

  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  obs::TimeSeries& series() { return series_; }
  const obs::TimeSeries& series() const { return series_; }

 private:
  void RegisterChannels();
  sim::Process Sampler(double interval_sec);

  Simulation* simulation_;
  obs::TimeSeries series_;
};

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_TELEMETRY_H_
