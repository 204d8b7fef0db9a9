// Capacity search: "the maximum number of terminals that a configuration
// can support without glitches" (paper §7.1, Fig 9).
//
// The search evaluates the glitch-free predicate at increasing terminal
// counts (exponential bracketing from a starting guess), then bisects to
// the requested granularity. Replications rerun a point with different
// seeds; a point passes only if every replication is glitch-free.
//
// FindCapacities walks a batch of searches over one ParallelRunner. Every
// unfinished search's realized next probe is submitted first; workers
// left idle take speculative probes — points either verdict of a pending
// probe may lead to — and probes made moot by a verdict are cancelled.
// Each probe is a deterministic function of (config, terminals, seed),
// and each search folds its verdicts in its own probe order, so every
// search walks exactly its serial decision path and returns identical
// results for every job count and batch (locked by
// tests/vod/runner_test.cc).

#ifndef SPIFFI_VOD_CAPACITY_H_
#define SPIFFI_VOD_CAPACITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "vod/config.h"
#include "vod/metrics.h"

namespace spiffi::vod {

class ParallelRunner;

struct CapacitySearchOptions {
  int min_terminals = 10;
  int max_terminals = 2000;
  int step = 5;          // result granularity
  int start_guess = 100; // first point probed
  int replications = 1;  // seeds per point
  // Runner workers: 1 = one worker, realized probes only; 0 =
  // sim::DefaultJobs() (SPIFFI_JOBS / hardware concurrency); n > 1 =
  // that many workers, idle ones taking speculative probes. The result
  // is identical for every value.
  int jobs = 1;
};

struct CapacitySearch {
  SimConfig base;
  CapacitySearchOptions options;
};

struct CapacityResult {
  int max_terminals = 0;  // largest count found glitch-free
  // Every probe on the realized search path, in probe order:
  // (terminal count, total glitches over replications). Speculative
  // probes whose outcome never entered the search are not recorded.
  std::vector<std::pair<int, std::uint64_t>> probes;
  // Replication-aggregated metrics of the final glitch-free probe (at
  // max_terminals); see AggregateReplications().
  SimMetrics at_capacity;
};

// Aggregate of a replication set, computed in replication order (so it
// is deterministic and independent of execution interleaving): each
// field folds by its kMetricFields rule (vod/metrics.h) — counters and
// durations are summed; averaged rates (avg_*, p50/p99 response,
// mttr_sec) are the arithmetic mean (all replications run the same
// measurement window); min/max disk utilization, peak network bandwidth
// and prefix_pinned_pages (a level sampled at collection time) take the
// extreme; terminals is the first replication's (all agree). The
// aggregate of a single replication is that replication, bit for bit.
SimMetrics AggregateReplications(const std::vector<SimMetrics>& reps);

// Total glitches at `terminals`, summed over `replications` seeds
// (config.seed, config.seed+1, ...), run one after another in the
// calling thread. `out_aggregate` (optional) receives the aggregate of
// all replications — not just the last one.
std::uint64_t GlitchesAt(SimConfig config, int terminals, int replications,
                         SimMetrics* out_aggregate = nullptr);

// One result per search, in search order. Every search must resolve to
// the same jobs (checked). The video library of every search's
// replication seeds is pinned up front for the whole call
// (PinLibraries), so searches with equal library inputs share one build
// per seed.
std::vector<CapacityResult> FindCapacities(
    const std::vector<CapacitySearch>& searches);
// The same on a caller's runner (shared with other work, or read for
// progress), whose job count must equal every search's resolved jobs.
std::vector<CapacityResult> FindCapacities(
    const std::vector<CapacitySearch>& searches, ParallelRunner& runner);

// FindCapacities({{base, options}})[0].
CapacityResult FindMaxTerminals(const SimConfig& base,
                                const CapacitySearchOptions& options);

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_CAPACITY_H_
