// Low-overhead event tracing for the simulator (observability layer).
//
// A Tracer records structured events — instants, complete spans, async
// (begin/end) spans, and counters — into a fixed-capacity ring buffer.
// Each event is stamped with the simulated time it describes and the
// wall-clock time at which it was recorded, so a trace shows both where
// simulated time went and where the kernel spent real time producing it.
// When the ring fills, the oldest events are overwritten (the dropped
// count is kept), so tracing a long run keeps the most recent window.
//
// Traces export as Chrome trace_event JSON (WriteChromeJson), loadable
// in Perfetto / chrome://tracing. Track mapping convention used by the
// VoD instrumentation:
//
//   pid kTerminalsPid    "terminals"  — tid = terminal id
//   pid kNetworkPid      "network"    — async message-transit spans
//   pid kNodePidBase + n "node n"     — tid 0 = cpu, kDiskTidBase + d =
//                                       local disk d, kPoolTid = pool
//
// Event names must be string literals (or otherwise outlive the Tracer):
// the ring stores only the pointer.
//
// Instrumentation call sites should go through the helpers in
// obs/trace.h, which skip the call while no tracer is installed; tests
// and tools may use this class directly.

#ifndef SPIFFI_OBS_TRACER_H_
#define SPIFFI_OBS_TRACER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.h"

namespace spiffi::obs {

// Event categories; exported as the Chrome "cat" field. Fixed so the
// ring entry is one byte and export needs no string table.
enum class TraceCategory : std::uint8_t {
  kTerminal,
  kServer,
  kDisk,
  kNetwork,
  kBuffer,
  kPrefetch,
  kKernel,
  kFault,
  kProxy,
};
inline constexpr int kNumTraceCategories = 9;
const char* TraceCategoryName(TraceCategory category);

// One optional key/value annotation on an event. Keys must be string
// literals, like event names.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

struct TraceEvent {
  sim::SimTime ts = 0.0;      // simulated seconds (span start for kSpan)
  sim::SimTime end_ts = 0.0;  // simulated seconds (kSpan only)
  double wall_us = 0.0;       // wall microseconds since tracer creation
  std::uint64_t id = 0;       // async-span correlation id
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  const char* name = nullptr;
  TraceCategory category = TraceCategory::kKernel;
  char phase = 'i';  // 'i' instant, 'X' span, 'b'/'e' async, 'C' counter
  std::uint8_t num_args = 0;
  std::array<TraceArg, 3> args{};
};

class Tracer {
 public:
  // Track-id convention used by the simulation instrumentation.
  static constexpr std::int32_t kTerminalsPid = 1;
  static constexpr std::int32_t kNetworkPid = 2;
  static constexpr std::int32_t kFaultPid = 3;
  static constexpr std::int32_t kNodePidBase = 10;
  static constexpr std::int32_t kProxyPidBase = 500;
  static constexpr std::int32_t kCpuTid = 0;
  static constexpr std::int32_t kDiskTidBase = 1;
  static constexpr std::int32_t kPoolTid = 99;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Runtime switch; recording while disabled is a no-op.
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // --- Recording (ts values are simulated seconds) ---

  void Instant(TraceCategory category, const char* name, std::int32_t pid,
               std::int32_t tid, sim::SimTime ts,
               std::initializer_list<TraceArg> args = {});
  // Complete span [start_ts, end_ts] on one serial track. Spans on the
  // same (pid, tid) must nest; use async spans for overlapping work.
  void Span(TraceCategory category, const char* name, std::int32_t pid,
            std::int32_t tid, sim::SimTime start_ts, sim::SimTime end_ts,
            std::initializer_list<TraceArg> args = {});
  // Async span half; begin/end pairs are correlated by (category, id).
  void AsyncBegin(TraceCategory category, const char* name,
                  std::int32_t pid, std::uint64_t id, sim::SimTime ts,
                  std::initializer_list<TraceArg> args = {});
  void AsyncEnd(TraceCategory category, const char* name, std::int32_t pid,
                std::uint64_t id, sim::SimTime ts,
                std::initializer_list<TraceArg> args = {});
  void Counter(TraceCategory category, const char* name, std::int32_t pid,
               std::int32_t tid, sim::SimTime ts, double value);

  // Fresh correlation id for an async span pair.
  std::uint64_t NextAsyncId() { return next_async_id_++; }

  // --- Track naming (exported as Chrome metadata events) ---

  void SetProcessName(std::int32_t pid, std::string name);
  void SetThreadName(std::int32_t pid, std::int32_t tid, std::string name);

  // --- Inspection ---

  std::size_t capacity() const { return capacity_; }
  // Events currently held (<= capacity).
  std::size_t size() const;
  // Events overwritten because the ring was full.
  std::uint64_t dropped() const;
  std::uint64_t total_recorded() const { return total_recorded_; }
  // i = 0 is the oldest retained event.
  const TraceEvent& event(std::size_t i) const;

  // Writes the whole buffer (plus track-name metadata) as Chrome
  // trace_event JSON. Timestamps are exported in microseconds of
  // simulated time; the wall-clock stamp rides along as an arg.
  void WriteChromeJson(std::ostream& out) const;

 private:
  static constexpr std::size_t kDefaultCapacity = 256 * 1024;

  TraceEvent* Append();
  double WallMicrosNow() const;
  void WriteEventJson(std::ostream& out, const TraceEvent& event) const;

  bool enabled_ = true;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // ring slot for the next event
  std::uint64_t total_recorded_ = 0;
  std::uint64_t next_async_id_ = 1;
  std::chrono::steady_clock::time_point epoch_;
  std::map<std::int32_t, std::string> process_names_;
  std::map<std::pair<std::int32_t, std::int32_t>, std::string>
      thread_names_;
};

}  // namespace spiffi::obs

#endif  // SPIFFI_OBS_TRACER_H_
