// Machine-readable run reports (observability layer).
//
// A RunReport is the final self-description a run leaves behind: which
// configuration ran (as a stable digest, the human Describe() line, and
// every knob as `key=value` tokens that replay it through trace_run),
// how long it took in simulated and wall time, the collected SimMetrics,
// and where the streamed telemetry (if any) went. Harnesses append one
// JSON object per run to a JSONL file; tools/run_report.py renders them.

#ifndef SPIFFI_VOD_REPORT_H_
#define SPIFFI_VOD_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "vod/config_knobs.h"
#include "vod/metrics.h"

namespace spiffi::vod {

struct RunReport {
  std::string label;              // harness-assigned ("fig09/t=200", ...)
  std::string config_summary;     // SimConfig::Describe() one-liner
  std::uint64_t config_digest = 0;
  std::string config_knobs;       // FormatConfig() `key=value` tokens
  std::uint64_t seed = 0;
  int terminals = 0;
  double sim_seconds = 0.0;       // warmup + measurement simulated
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;    // events fired / wall second
  SimMetrics metrics;
  std::string telemetry_path;     // streamed JSONL telemetry, "" if none
};

// One-line JSON object terminated by '\n' (JSONL-friendly), fields in a
// fixed order, numbers formatted with the registry's "%.17g" convention.
void WriteRunReportJson(std::ostream& out, const RunReport& report);

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_REPORT_H_
