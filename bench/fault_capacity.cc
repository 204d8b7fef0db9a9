// Degraded-mode capacity: failure rate x replication degree.
//
// Not a paper figure — SPIFFI (§9) defers fault tolerance to future
// work; this harness quantifies what the deferral costs. For each
// replication degree (plain striping, then chained-declustered x2/x3
// copies) we re-run the Fig-9-style capacity search under a stochastic
// FaultPlan that takes disks down at a given rate, and report the
// maximum glitch-free terminal count plus the availability counters
// (re-routed reads, MTTR) at the highest failure rate. Plain striping
// collapses as soon as any disk fails inside the measurement window —
// every stream that touches the dead disk glitches — while the
// replicated layouts serve on through re-routed reads.

#include <cstdio>
#include <string>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace spiffi;
  bench::InitHarness(argc, argv);
  const bool smoke = bench::ActivePreset() == bench::Preset::kSmoke;

  bench::PrintHeader("degraded-mode capacity", "fault injection, beyond §9");
  vod::Sweep layouts;
  layouts.corner = {"layout"};
  layouts.base = {"fault_plan.disk_repair_mean_sec=15"};
  layouts.rows = {
      {"striped (no copies)", {"placement=striped", "replica_count=2"}},
      {"replicated x2", {"placement=replicated-striped", "replica_count=2"}},
      {"replicated x3", {"placement=replicated-striped", "replica_count=3"}},
  };
  // Per-disk MTBF (0 disables fault injection). The rates are chosen so
  // the 16-disk fleet sees roughly 0 / ~1 / ~4 failures per measurement
  // window at the fast preset; repairs take 15 s on average, well inside
  // the window, so MTTR and re-route counters are exercised too. Shorter
  // smoke windows need proportionally hotter failure rates.
  layouts.cols = {
      {"healthy", {"fault_plan.disk_mtbf_sec=0"}},
      {"1 fail/window", {vod::Token("fault_plan.disk_mtbf_sec",
                                    smoke ? 500.0 : 2000.0)}},
      {"4 fails/window", {vod::Token("fault_plan.disk_mtbf_sec",
                                     smoke ? 125.0 : 500.0)}},
  };
  if (smoke) layouts.rows.pop_back();  // x3 adds nothing qualitative
  layouts.extra = {"rerouted @ worst", "mttr @ worst"};
  layouts.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    const vod::SimMetrics& worst = grid[r].back().metrics;
    // Degraded reads dodge the dead disk two ways: redirected at issue
    // by fault-aware terminals, or re-routed node-to-node in flight.
    return vod::Cells{
        std::to_string(worst.requests_redirected + worst.rerouted_requests),
        vod::FmtDouble(worst.mttr_sec, 1) + " s"};
  };
  vod::PrintSweep(layouts, bench::RunSweep(layouts));
  std::printf(
      "\nReading: plain striping loses most of its capacity the moment "
      "disks start\nfailing (any stream crossing a dead disk glitches "
      "until the repair lands),\nwhile chained-declustered replication "
      "re-routes reads to the surviving copy\nand holds capacity near "
      "the healthy figure at the cost of 2x storage.\n");

  // --- Resilience layers on top of re-routing ---
  //
  // Same replicated-x2 layout at the hottest failure rate, stepping up
  // through the resilience stack: admission control (refuse streams the
  // bandwidth envelope cannot carry), request timeout/retry (re-issue a
  // late block to the next live replica instead of waiting for a
  // glitch), and post-repair rebuild (resync a repaired disk from its
  // peers at a throttled rate). The capacity search measures how many
  // glitch-free terminals each stack level sustains under the same
  // fault pressure as the reroute-only baseline above.
  vod::Sweep resilience;
  resilience.corner = {"resilience"};
  resilience.base = layouts.base;
  resilience.base.push_back("placement=replicated-striped");
  resilience.base.push_back("replica_count=2");
  resilience.base.push_back(layouts.cols.back().tokens[0]);
  resilience.rows = {
      {"reroute only", {}},
      {"+admission", {"admission_policy=static-reservation"}},
      {"+retry", {"request_retry_budget=2"}},
      // Rebuild throttled to ~3% of a disk's bandwidth: redundancy is
      // restored without eating the capacity retry wins back.
      {"+admission+retry+rebuild",
       {"admission_policy=static-reservation", "request_retry_budget=2",
        "rebuild_mbps=2"}},
  };
  resilience.cols = {{"capacity", {}}};
  resilience.extra = {"retries", "failovers", "rebuilds", "defers"};
  resilience.extra_cells = [](const vod::Grid& grid, std::size_t r) {
    const vod::SimMetrics& at = grid[r][0].metrics;
    return vod::Cells{std::to_string(at.request_retries),
                      std::to_string(at.session_failovers),
                      std::to_string(at.rebuilds_completed),
                      std::to_string(at.admission_defers)};
  };
  const vod::Grid grid = bench::RunSweep(resilience);
  std::printf("\nresilience stack, replicated x2 @ %s:\n",
              layouts.cols.back().label.c_str());
  vod::PrintSweep(resilience, grid);
  std::printf(
      "\nReading: retry converts silent waits on a dead replica into "
      "immediate\nre-issues against the surviving copy, admission sheds "
      "load the degraded\nenvelope cannot carry instead of glitching "
      "every stream a little, and\nrebuild returns repaired disks to "
      "full redundancy while competing with\nservice I/O at its "
      "throttled rate.\n");
  return 0;
}
