// Builds and runs one complete video-on-demand simulation.
//
// The Simulation object wires together the full system — video library,
// layout, network, server nodes, terminals, optional stream-share
// manager and proxy-cache tier —
// from a SimConfig, runs the warmup, opens the measurement window, and
// collects SimMetrics. RunSimulation() is the one-call convenience used
// by the benchmark harnesses.

#ifndef SPIFFI_VOD_SIMULATION_H_
#define SPIFFI_VOD_SIMULATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "client/stream_share.h"
#include "client/terminal.h"
#include "fault/injector.h"
#include "fault/state.h"
#include "hw/network.h"
#include "layout/layout.h"
#include "mpeg/video.h"
#include "obs/kernel_profile.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "proxy/proxy_node.h"
#include "server/message.h"
#include "server/server.h"
#include "sim/environment.h"
#include "sim/process.h"
#include "vod/admission.h"
#include "vod/config.h"
#include "vod/metrics.h"

namespace spiffi::vod {

// Kernel self-profile of one completed Run(), delivered to the run
// observer. Benchmark harnesses install an observer (SetRunObserver) to
// implement their --profile and --report modes without touching
// experiment code.
struct RunProfile {
  double wall_seconds = 0.0;  // warmup + measurement, wall clock
  int terminals = 0;
  double sim_seconds = 0.0;   // warmup + measurement, simulated
  std::uint64_t seed = 0;
  std::uint64_t config_digest = 0;  // ConfigDigest(config), see report.h
  std::string config_summary;       // SimConfig::Describe()
  std::string config_knobs;         // FormatConfig(config), replayable
  SimMetrics metrics;               // what Run() returned
  obs::KernelProfile kernel;
  // Display-loop frame-size draws since construction (the registry's
  // terminal.frame_window_refills / terminal.display_scalar_draws).
  std::uint64_t frame_window_refills = 0;
  std::uint64_t display_scalar_draws = 0;
};
using RunObserver = std::function<void(const RunProfile&)>;

// Mid-run progress snapshot, delivered to the optional progress callback
// at every slice boundary of Run() (roughly 100 times per run). All
// fields describe the run so far; `sim_end_seconds` is the known target,
// so sim_now / sim_end is a faithful completion fraction.
struct RunProgress {
  double sim_now_seconds = 0.0;
  double sim_end_seconds = 0.0;  // warmup + measurement
  std::uint64_t events_fired = 0;
  double wall_seconds = 0.0;     // since Run() started
  bool in_measurement = false;   // false during warmup
};
using ProgressFn = std::function<void(const RunProgress&)>;

// Installs a process-wide observer called at the end of every
// Simulation::Run(); pass nullptr to clear. The registry is
// mutex-guarded, so installing and invoking are thread-safe — but the
// observer itself runs on whichever thread finished the simulation
// (ParallelRunner workers included) and must synchronize its own state.
void SetRunObserver(RunObserver observer);

// The video library a Simulation of `config` runs on: the process-wide
// shared instance for its inputs (mpeg/library_cache.h). Simulations own
// everything else themselves; this one immutable object is shared. A
// caller that holds the returned pointer across several constructions
// makes them all share a single build.
std::shared_ptr<const mpeg::VideoLibrary> SharedLibraryFor(
    const SimConfig& config);

// The libraries of `configs`, in config order. Held across a batch of
// runs (a capacity search's probes, a ParallelRunner::RunAll), they make
// every run of one library key share a single build — one per distinct
// key, whatever the run order or job count. Take them on a thread that
// is not a pool worker, so each build fans out over several threads.
using LibraryPins = std::vector<std::shared_ptr<const mpeg::VideoLibrary>>;
LibraryPins PinLibraries(const std::vector<SimConfig>& configs);

class Simulation {
 public:
  // Aborts (CHECK) if config.Validate() reports a problem; validate first
  // when the configuration is user input.
  explicit Simulation(const SimConfig& config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Runs warmup + measurement and returns the collected metrics.
  SimMetrics Run();

  // Cooperatively-cancellable Run() for off-thread execution: the event
  // loop is driven in fixed time slices and `cancel` is checked between
  // slices. Returns true and fills `out` when the run completed; returns
  // false (leaving `out` untouched, observer not notified) when
  // cancelled. Slicing is observationally identical to Run() — the same
  // events fire in the same order — so a completed run's metrics are
  // bit-identical to Run()'s (Run() itself is this method with a
  // never-set flag). `progress` (may be empty) is invoked at every slice
  // boundary, on the simulating thread, and must not re-enter the
  // simulation; it lets harnesses publish sim-time / events-fired
  // snapshots for live introspection.
  bool Run(const std::atomic<bool>& cancel, SimMetrics* out,
           const ProgressFn& progress);

  // Component access (for tests and custom experiment loops).
  sim::Environment& env() { return *env_; }
  server::VideoServer& server() { return *server_; }
  const mpeg::VideoLibrary& library() const { return *library_; }
  const layout::Layout& layout() const { return *layout_; }
  client::Terminal& terminal(int id) { return *terminals_[id]; }
  int num_terminals() const { return static_cast<int>(terminals_.size()); }
  hw::Network& network() { return *network_; }
  // Null unless the config carries an enabled FaultPlan.
  const fault::FaultState* fault_state() const { return fault_state_.get(); }
  const fault::FaultInjector* fault_injector() const {
    return fault_injector_.get();
  }
  // Null unless config.stream_sharing_enabled().
  const client::StreamShareManager* stream_share() const {
    return share_.get();
  }
  // Proxy tier: empty when config.proxy_nodes == 0 (flat topology).
  int num_proxies() const { return static_cast<int>(proxies_.size()); }
  proxy::ProxyNode& proxy_node(int id) { return *proxies_[id]; }
  const proxy::ProxyNode& proxy_node(int id) const { return *proxies_[id]; }
  // Null unless config.admission_policy != AdmissionPolicy::kOff.
  const AdmissionController* admission() const { return admission_.get(); }
  const SimConfig& config() const { return config_; }

  // Manual phase control used by Run(); exposed for experiments that
  // sample mid-run (e.g. utilization traces).
  void RunWarmup();
  void ResetAllStats();
  void RunMeasurement();
  // Builds SimMetrics by reading each kMetricFields row's registry
  // probe.
  SimMetrics Collect() const;

  // The registry holding every metric this simulation exposes —
  // per-component probes plus derived metrics (queue-wait vs service
  // breakdown, deadline slack, glitch attribution). Export with
  // metrics().WriteJson(...) / WriteCsv(...).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Turns on event tracing and labels the Perfetto tracks (terminals,
  // network, per-node cpu/disks/pool). Returns the environment's tracer.
  obs::Tracer& EnableTracing(std::size_t ring_capacity = 256 * 1024);

 private:
  void RegisterMetrics();
  // Throttled post-repair resync of one disk from replica peers; spawned
  // by the fault effect handler when rebuild_mbps > 0 on a replicated
  // layout. Holds the FaultState `rebuilding` flag for its lifetime.
  sim::Process RebuildDisk(int disk_global);

  // Terminus for rebuild read replies: the payload is a resync, not a
  // stream, so the reply is only counted, never buffered.
  struct RebuildSink final : server::MessageSink {
    void OnMessage(const server::Message& message) override;
    std::uint64_t replies = 0;
  };

  SimConfig config_;
  // Declared first so it is destroyed last, after everything scheduled
  // on it.
  std::unique_ptr<sim::Environment> env_;
  // Shared with every live run of the same library inputs (immutable).
  std::shared_ptr<const mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::Layout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<fault::FaultState> fault_state_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<AdmissionController> admission_;
  RebuildSink rebuild_sink_;
  std::unique_ptr<server::VideoServer> server_;
  std::unique_ptr<client::StreamShareManager> share_;
  std::vector<std::unique_ptr<proxy::ProxyNode>> proxies_;
  std::vector<std::unique_ptr<client::Terminal>> terminals_;
  obs::MetricsRegistry metrics_;
  sim::SimTime measure_start_ = 0.0;
};

// Convenience: construct, run, and return the metrics.
SimMetrics RunSimulation(const SimConfig& config);

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_SIMULATION_H_
