#include "vod/capacity.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <variant>

#include "sim/check.h"
#include "vod/runner.h"
#include "vod/simulation.h"

namespace spiffi::vod {

namespace {

// The capacity search as an explicit decision machine: NextProbe() names
// the terminal count the search must evaluate next, Advance() folds in
// the glitch-free verdict. FindCapacities walks one machine per search
// and SpeculativePoints expands copies of it, so every search probes
// exactly the path its verdicts dictate.
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

std::uint64_t SumGlitches(const std::vector<SimMetrics>& reps) {
  std::uint64_t total = 0;
  for (const SimMetrics& m : reps) total += m.glitches;
  return total;
}

using RunHandle = ParallelRunner::RunHandle;

// One search of a FindCapacities batch: its decision machine, the probe
// points it has in flight (each point's replication runs), its result.
struct Walk {
  const CapacitySearch* search;
  SearchState state;
  std::map<int, std::vector<RunHandle>> inflight;
  CapacityResult result;
};

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
                         SimMetrics* out_aggregate) {
  SPIFFI_CHECK(replications > 0);
  std::vector<SimMetrics> reps;
  reps.reserve(replications);
  for (const SimConfig& replication :
       ReplicationConfigs(config, terminals, replications)) {
    reps.push_back(RunSimulation(replication));
  }
  if (out_aggregate != nullptr) *out_aggregate = AggregateReplications(reps);
  return SumGlitches(reps);
}

std::vector<CapacityResult> FindCapacities(
    const std::vector<CapacitySearch>& searches) {
  if (searches.empty()) return {};
  ParallelRunner runner(ResolveJobs(searches.front().options.jobs));
  return FindCapacities(searches, runner);
}

std::vector<CapacityResult> FindCapacities(
    const std::vector<CapacitySearch>& searches, ParallelRunner& runner) {
  const int jobs = runner.jobs();
  std::vector<LibraryPins> pins;
  std::vector<Walk> walks;
  walks.reserve(searches.size());
  for (const CapacitySearch& search : searches) {
    const CapacitySearchOptions& options = search.options;
    SPIFFI_CHECK(options.step > 0);
    SPIFFI_CHECK(options.min_terminals > 0);
    SPIFFI_CHECK(options.max_terminals >= options.min_terminals);
    SPIFFI_CHECK(options.replications > 0);
    SPIFFI_CHECK(ResolveJobs(options.jobs) == jobs);
    // Probes differ only in their terminal count, so with these pins
    // every probe of one seed — of every search whose config has the
    // same library inputs — shares a single library build.
    pins.push_back(PinLibraries(ReplicationConfigs(
        search.base, search.base.terminals, options.replications)));
    walks.push_back({&search, SearchState(options), {}, {}});
  }

  for (;;) {
    // The outstanding set, in submission order: every live search's
    // realized probe, then speculative points, breadth first across the
    // searches, while the set holds fewer than two points or fewer than
    // `jobs` runs. A lone search thus keeps max(2, ceil(jobs /
    // replications)) points out, and a batch speculates only on workers
    // its realized probes leave idle. One worker never speculates.
    std::vector<std::vector<int>> frontiers;
    std::vector<std::pair<Walk*, int>> wanted;
    int runs = 0;
    auto want = [&](Walk& walk, int t) {
      wanted.emplace_back(&walk, t);
      runs += walk.search->options.replications;
    };
    for (Walk& walk : walks) {
      frontiers.push_back(
          SpeculativePoints(walk.state, jobs > 1 ? jobs + 1 : 1));
      if (!frontiers.back().empty()) want(walk, frontiers.back().front());
    }
    const std::size_t live = wanted.size();
    for (int depth = 1; depth <= jobs; ++depth) {
      for (std::size_t i = 0; i < walks.size(); ++i) {
        if (static_cast<std::size_t>(depth) < frontiers[i].size() &&
            (wanted.size() < 2 || runs < jobs)) {
          want(walks[i], frontiers[i][depth]);
        }
      }
    }

    // Stop the probes the last verdicts made moot, and every probe of a
    // finished search.
    for (Walk& walk : walks) {
      for (auto it = walk.inflight.begin(); it != walk.inflight.end();) {
        if (std::find(wanted.begin(), wanted.end(),
                      std::pair{&walk, it->first}) == wanted.end()) {
          for (const RunHandle& run : it->second) runner.Cancel(run);
          it = walk.inflight.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (wanted.empty()) break;
    for (const auto& [walk, t] : wanted) {
      if (walk->inflight.count(t) != 0) continue;
      std::vector<RunHandle>& handles = walk->inflight[t];
      for (const SimConfig& config :
           ReplicationConfigs(walk->search->base, t,
                              walk->search->options.replications)) {
        handles.push_back(runner.Submit(config));
      }
    }

    // Fold in the verdict of the first search whose realized probe has
    // finished; the others keep theirs for the next rounds.
    std::vector<std::vector<RunHandle>> realized;
    for (std::size_t i = 0; i < live; ++i) {
      realized.push_back(wanted[i].first->inflight.at(wanted[i].second));
    }
    const auto [walk, t] = wanted[runner.WaitAny(realized)];
    std::vector<SimMetrics> reps;
    for (const RunHandle& run : walk->inflight.at(t)) {
      SimMetrics metrics;
      bool completed = runner.Wait(run, &metrics);
      SPIFFI_CHECK(completed);  // realized probes are never cancelled
      reps.push_back(metrics);
    }
    walk->inflight.erase(t);
    const std::uint64_t glitches = SumGlitches(reps);
    walk->result.probes.emplace_back(t, glitches);
    if (glitches == 0) walk->result.at_capacity = AggregateReplications(reps);
    walk->state.Advance(glitches == 0);
    walk->result.max_terminals = walk->state.known_good;
  }

  std::vector<CapacityResult> results;
  results.reserve(walks.size());
  for (Walk& walk : walks) results.push_back(std::move(walk.result));
  return results;
}

CapacityResult FindMaxTerminals(const SimConfig& base,
                                const CapacitySearchOptions& options) {
  return FindCapacities({{base, options}})[0];
}

}  // namespace spiffi::vod
