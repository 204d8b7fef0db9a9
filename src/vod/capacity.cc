#include "vod/capacity.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <variant>

#include "sim/check.h"
#include "vod/runner.h"
#include "vod/simulation.h"

namespace spiffi::vod {

namespace {

// The capacity search as an explicit decision machine: NextProbe() names
// the terminal count the search must evaluate next, Advance() folds in
// the glitch-free verdict. The serial driver and the speculative
// parallel driver both walk exactly this machine, so they probe the same
// realized path and return identical results.
struct SearchState {
  enum class Phase { kBracket, kBisect, kDone };

  explicit SearchState(const CapacitySearchOptions& opts) : options(&opts) {
    current = std::clamp(opts.start_guess, opts.min_terminals,
                         opts.max_terminals);
  }

  // Terminal count of the next probe; -1 once the search is finished.
  int NextProbe() const {
    switch (phase) {
      case Phase::kBracket:
        return current;
      case Phase::kBisect:
        return lo + (hi - lo) / 2;
      case Phase::kDone:
        return -1;
    }
    return -1;
  }

  void Advance(bool glitch_free) {
    int probed = NextProbe();
    SPIFFI_DCHECK(probed > 0);
    if (phase == Phase::kBracket) {
      if (glitch_free) {
        known_good = probed;
        if (probed >= options->max_terminals) {
          phase = Phase::kDone;
        } else if (known_bad != 0) {
          BeginBisect();
        } else {
          current = std::min(probed * 2, options->max_terminals);
        }
      } else {
        known_bad = probed;
        if (probed <= options->min_terminals) {
          phase = Phase::kDone;
        } else if (known_good != 0) {
          BeginBisect();
        } else {
          current = std::max(probed / 2, options->min_terminals);
        }
      }
    } else {  // Phase::kBisect
      if (glitch_free) {
        known_good = probed;
        lo = probed;
      } else {
        hi = probed;
      }
      if (hi - lo <= options->step) phase = Phase::kDone;
    }
  }

  void BeginBisect() {
    lo = known_good;
    hi = known_bad;
    phase = hi - lo <= options->step ? Phase::kDone : Phase::kBisect;
  }

  Phase phase = Phase::kBracket;
  int current = 0;     // next probe point while bracketing
  int known_good = 0;  // largest count probed glitch-free (0 = none)
  int known_bad = 0;   // a count that glitched (0 = none)
  int lo = 0, hi = 0;  // bisection bracket
  const CapacitySearchOptions* options;
};

// Breadth-first expansion of the search's decision tree from `state`:
// returns up to `budget` distinct probe points, nearest-to-realization
// first. The first entry is the state's own NextProbe(); deeper entries
// are the points the search would need under either verdict of the
// shallower ones — the speculation frontier.
std::vector<int> SpeculativePoints(const SearchState& state, int budget) {
  std::vector<int> points;
  std::set<int> seen;
  std::vector<SearchState> frontier = {state};
  while (!frontier.empty() &&
         static_cast<int>(points.size()) < budget) {
    std::vector<SearchState> next;
    for (const SearchState& s : frontier) {
      int t = s.NextProbe();
      if (t < 0) continue;
      if (seen.insert(t).second) {
        points.push_back(t);
        if (static_cast<int>(points.size()) >= budget) return points;
      }
      SearchState on_good = s;
      on_good.Advance(true);
      next.push_back(on_good);
      SearchState on_bad = s;
      on_bad.Advance(false);
      next.push_back(on_bad);
    }
    frontier = std::move(next);
  }
  return points;
}

// Replication configs for one probe point, in replication order.
std::vector<SimConfig> ReplicationConfigs(SimConfig config, int terminals,
                                          int replications) {
  std::uint64_t base_seed = config.seed;
  config.terminals = terminals;
  std::vector<SimConfig> configs;
  configs.reserve(replications);
  for (int r = 0; r < replications; ++r) {
    config.seed = base_seed + static_cast<std::uint64_t>(r);
    configs.push_back(config);
  }
  return configs;
}

// The video library of every replication seed, held for a whole search
// or curve. Probes differ only in their terminal count, so with these
// pins every probe of one seed shares a single library build (runner
// workers included) instead of rebuilding it per probe.
using LibraryPins = std::vector<std::shared_ptr<const mpeg::VideoLibrary>>;

LibraryPins PinLibraries(const SimConfig& base, int replications) {
  LibraryPins pins;
  for (const SimConfig& config :
       ReplicationConfigs(base, base.terminals, replications)) {
    pins.push_back(SharedLibraryFor(config));
  }
  return pins;
}

std::uint64_t SumGlitches(const std::vector<SimMetrics>& reps) {
  std::uint64_t total = 0;
  for (const SimMetrics& m : reps) total += m.glitches;
  return total;
}

struct ProbeOutcome {
  std::uint64_t glitches = 0;
  SimMetrics aggregate;
};

// Speculative parallel search: keeps the runner fed with the probes the
// search may need next, cancels the ones a resolved sibling made moot,
// and consumes outcomes strictly along the realized decision path.
CapacityResult FindMaxTerminalsParallel(const SimConfig& base,
                                        const CapacitySearchOptions& options,
                                        int jobs) {
  ParallelRunner runner(jobs);
  SearchState state(options);
  CapacityResult result;
  SimMetrics good_metrics;

  // Outstanding probe budget: enough points to occupy every worker with
  // `replications` runs each, and always at least one speculative probe
  // beyond the realized one.
  int budget =
      std::max(2, (jobs + options.replications - 1) / options.replications);

  std::map<int, std::vector<ParallelRunner::RunHandle>> inflight;

  while (state.phase != SearchState::Phase::kDone) {
    std::vector<int> wanted = SpeculativePoints(state, budget);
    SPIFFI_CHECK(!wanted.empty());
    SPIFFI_CHECK(wanted.front() == state.NextProbe());

    for (int t : wanted) {
      if (inflight.count(t) != 0) continue;
      std::vector<ParallelRunner::RunHandle>& runs = inflight[t];
      for (const SimConfig& config :
           ReplicationConfigs(base, t, options.replications)) {
        runs.push_back(runner.Submit(config));
      }
    }
    // Anything inflight the (re)expanded tree no longer contains was made
    // moot by the last verdict: stop it.
    std::set<int> wanted_set(wanted.begin(), wanted.end());
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (wanted_set.count(it->first) == 0) {
        for (const ParallelRunner::RunHandle& run : it->second) {
          runner.Cancel(run);
        }
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }

    int t = wanted.front();
    std::vector<SimMetrics> reps;
    reps.reserve(options.replications);
    for (const ParallelRunner::RunHandle& run : inflight.at(t)) {
      SimMetrics metrics;
      bool completed = runner.Wait(run, &metrics);
      SPIFFI_CHECK(completed);  // realized probes are never cancelled
      reps.push_back(metrics);
    }
    inflight.erase(t);

    ProbeOutcome outcome;
    outcome.glitches = SumGlitches(reps);
    outcome.aggregate = AggregateReplications(reps);
    result.probes.emplace_back(t, outcome.glitches);
    if (options.verbose) {
      std::fprintf(stderr, "  probe %4d terminals: %llu glitches\n", t,
                   static_cast<unsigned long long>(outcome.glitches));
    }
    if (outcome.glitches == 0) good_metrics = outcome.aggregate;
    state.Advance(outcome.glitches == 0);
  }
  // Leftover speculative probes are cancelled by the runner's destructor.

  result.max_terminals = state.known_good;
  result.at_capacity = good_metrics;
  return result;
}

}  // namespace

SimMetrics AggregateReplications(const std::vector<SimMetrics>& reps) {
  SPIFFI_CHECK(!reps.empty());
  SimMetrics a = reps.front();
  const double n = static_cast<double>(reps.size());
  for (const MetricField& field : kMetricFields) {
    std::visit(
        [&](auto member) {
          auto& acc = a.*member;
          for (std::size_t i = 1; i < reps.size(); ++i) {
            const auto value = reps[i].*member;
            switch (field.aggregate) {
              case Aggregate::kFirst:
                break;
              case Aggregate::kSum:
              case Aggregate::kMean:
                acc += value;
                break;
              case Aggregate::kMin:
                acc = std::min(acc, value);
                break;
              case Aggregate::kMax:
                acc = std::max(acc, value);
                break;
            }
          }
          // kMean rows are doubles (checked where the table is defined).
          if (field.aggregate == Aggregate::kMean) acc /= n;
        },
        field.member);
  }
  return a;
}

std::uint64_t GlitchesAt(SimConfig config, int terminals, int replications,
                         SimMetrics* out_aggregate, ParallelRunner* runner) {
  SPIFFI_CHECK(replications > 0);
  std::vector<SimConfig> configs =
      ReplicationConfigs(config, terminals, replications);
  std::vector<SimMetrics> reps;
  reps.reserve(replications);
  if (runner != nullptr) {
    reps = runner->RunAll(configs);
  } else {
    for (const SimConfig& replication : configs) {
      reps.push_back(RunSimulation(replication));
    }
  }
  if (out_aggregate != nullptr) *out_aggregate = AggregateReplications(reps);
  return SumGlitches(reps);
}

CapacityResult FindMaxTerminals(const SimConfig& base,
                                const CapacitySearchOptions& options) {
  SPIFFI_CHECK(options.step > 0);
  SPIFFI_CHECK(options.min_terminals > 0);
  SPIFFI_CHECK(options.max_terminals >= options.min_terminals);
  SPIFFI_CHECK(options.replications > 0);

  const LibraryPins pins = PinLibraries(base, options.replications);
  int jobs = options.jobs == 1 ? 1 : ResolveJobs(options.jobs);
  if (jobs > 1) return FindMaxTerminalsParallel(base, options, jobs);

  SearchState state(options);
  CapacityResult result;
  SimMetrics good_metrics;
  while (state.phase != SearchState::Phase::kDone) {
    int t = state.NextProbe();
    SimMetrics aggregate;
    std::uint64_t glitches =
        GlitchesAt(base, t, options.replications, &aggregate);
    result.probes.emplace_back(t, glitches);
    if (options.verbose) {
      std::fprintf(stderr, "  probe %4d terminals: %llu glitches\n", t,
                   static_cast<unsigned long long>(glitches));
    }
    if (glitches == 0) good_metrics = aggregate;
    state.Advance(glitches == 0);
  }
  result.max_terminals = state.known_good;
  result.at_capacity = good_metrics;
  return result;
}

std::vector<std::pair<int, std::uint64_t>> GlitchCurve(
    const SimConfig& base, const std::vector<int>& terminal_counts,
    int replications, int jobs) {
  const LibraryPins pins = PinLibraries(base, replications);
  std::vector<std::pair<int, std::uint64_t>> curve;
  curve.reserve(terminal_counts.size());
  int resolved = jobs == 1 ? 1 : ResolveJobs(jobs);
  if (resolved > 1 && terminal_counts.size() * replications > 1) {
    // Every (point, replication) pair is independent: fan the whole grid
    // out at once and assemble per-point sums in submission order.
    ParallelRunner runner(resolved);
    std::vector<SimConfig> configs;
    configs.reserve(terminal_counts.size() * replications);
    for (int terminals : terminal_counts) {
      for (const SimConfig& config :
           ReplicationConfigs(base, terminals, replications)) {
        configs.push_back(config);
      }
    }
    std::vector<SimMetrics> all = runner.RunAll(configs);
    std::size_t index = 0;
    for (int terminals : terminal_counts) {
      std::uint64_t total = 0;
      for (int r = 0; r < replications; ++r) total += all[index++].glitches;
      curve.emplace_back(terminals, total);
    }
    return curve;
  }
  for (int terminals : terminal_counts) {
    curve.emplace_back(terminals,
                       GlitchesAt(base, terminals, replications));
  }
  return curve;
}

}  // namespace spiffi::vod
