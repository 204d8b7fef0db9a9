// One capacity-sweep driver for the figure and table harnesses.
//
// Every table of the paper's evaluation (§7-§8) is the same experiment:
// the maximum glitch-free terminal count (a vod::FindCapacities search),
// taken over a grid of config variants. A harness declares that grid as a
// Sweep — a row axis and a column axis of labelled `key=value` deltas
// (the knob keys of vod/config_knobs.h) — RunSweep runs it, and
// PrintSweep prints it as a table.
//
// Adding a figure:
//  1. Write the spec: title and paper reference, the `base` tokens every
//     cell shares, and the two axes. A cell's config is
//     BaseConfig(preset), then `base`, then the row's tokens, then the
//     column's, so a column token overrides a row token of the same key.
//  2. Pick the measure: a capacity search (the default; a point's
//     `search` overrides the preset's start guess, step and ceiling, a
//     column's over a row's over the spec's), or with `fixed_count` one
//     run at the `terminals=N` the tokens set.
//  3. Pick the cell text: `format` (default: the capacity found), plus
//     any `extra` columns derived from the grid.
//  4. Add the harness to bench/CMakeLists.txt, both as a binary and in
//     the BenchGolden list, and capture its golden:
//     `build/bench/<name> --smoke --jobs 2 > bench/testdata/<name>.smoke.txt`.
// What is not a cell of one grid — ratios across rows, reading notes —
// stays in the harness, computed from the grid RunSweep returns.

#ifndef SPIFFI_BENCH_SWEEP_H_
#define SPIFFI_BENCH_SWEEP_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "vod/capacity.h"
#include "vod/config_knobs.h"
#include "vod/runner.h"
#include "vod/table.h"

namespace spiffi::bench {

// Capacity-search overrides; 0 keeps the value from further out.
struct SearchOverride {
  int start_guess = 0;
  int step = 0;
  int ceiling = 0;  // CapacitySearchOptions::max_terminals
};

using Cells = std::vector<std::string>;

// One entry of an axis: its label and the config delta it applies.
struct SweepPoint {
  std::string label;
  std::vector<std::string> tokens;  // `key=value`
  SearchOverride search = {};
  Cells more_labels = {};  // rows only: label cells after `label`
};

struct Cell {
  vod::SimConfig config;
  int terminals = 0;        // the capacity found, or the fixed count
  bool at_ceiling = false;  // the search ended within a step of its ceiling
  vod::SimMetrics metrics;  // at capacity, or of the fixed-count run
  // Capacity cells: the search's realized probes (terminal count, total
  // glitches over the replications), and its replications per probe.
  std::vector<std::pair<int, std::uint64_t>> probes;
  int replications = 1;
};
using Grid = std::vector<std::vector<Cell>>;  // [row][column]

struct Sweep {
  const char* title = nullptr;  // the header line; none when null
  const char* paper_ref = "";
  Cells corner;  // headers of the row-label columns
  std::vector<std::string> base;
  std::vector<SweepPoint> rows;
  std::vector<SweepPoint> cols;
  SearchOverride search = {};
  bool fixed_count = false;
  std::function<std::string(const Cell&)> format = [](const Cell& cell) {
    return std::to_string(cell.terminals);
  };
  // Columns after the grid's: their headers, and their cells in row r.
  Cells extra;
  std::function<Cells(const Grid&, std::size_t r)> extra_cells;
};

// `key=value`, the value as SetConfigKnob reads it back exactly.
template <typename T>
std::string Token(const std::string& key, T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return key + "=" + text;
  } else {
    return key + "=" + std::to_string(value);
  }
}

// One point per value of `key`, labelled label(value).
template <typename T, typename Label>
std::vector<SweepPoint> Axis(const std::string& key,
                             const std::vector<T>& values, Label label) {
  std::vector<SweepPoint> points;
  for (T value : values) points.push_back({label(value), {Token(key, value)}});
  return points;
}

// One point per size of `key`, given and labelled in units of `unit`
// bytes called `unit_name`.
inline std::vector<SweepPoint> SizeAxis(const std::string& key,
                                        std::vector<std::int64_t> sizes,
                                        std::int64_t unit,
                                        const std::string& unit_name) {
  for (std::int64_t& size : sizes) size *= unit;
  return Axis(key, sizes, [&](std::int64_t bytes) {
    return std::to_string(bytes / unit) + " " + unit_name;
  });
}

// The aggregate server memory sweep of Figs 11-16 and 19.
inline std::vector<SweepPoint> MemoryAxis(std::vector<std::int64_t> mb) {
  return SizeAxis("server_memory_bytes", std::move(mb), hw::kMiB, "MB");
}

// One point of the §7.6 scaleup: 4 CPUs throughout and 16 * s disks,
// labelled by the disk count, with the server memory scaled from
// `memory_mb` at 16 disks. The search's start guess scales too, and so
// does its step outside the full preset: coarser steps at scale keep
// the big searches affordable.
inline SweepPoint ScalePoint(int s, std::int64_t memory_mb) {
  return {std::to_string(16 * s),
          {"num_nodes=4", Token("disks_per_node", 4 * s),
           Token("server_memory_bytes", memory_mb * s * hw::kMiB)},
          {200 * s, ActivePreset() == Preset::kFull ? 5 : 5 * s}};
}

// "x<ratio>" of a capacity to a baseline's, "x0.00" without a baseline.
inline std::string Gain(int terminals, int baseline) {
  const double ratio =
      baseline > 0 ? static_cast<double>(terminals) / baseline : 0.0;
  return "x" + vod::FmtDouble(ratio, 2);
}

// Builds every cell's config and validates it, then runs the grid on
// one ParallelRunner of --jobs workers: capacity cells as one
// vod::FindCapacities batch, fixed-count cells as one RunAll batch. Both
// build one video library per distinct library key and seed of the grid.
// Each cell's realized runs are noted for --report in cell order. A token
// SetConfigKnob rejects, or a config Validate() rejects, exits with
// status 1 before anything runs, naming the cell.
inline Grid RunSweep(const Sweep& spec) {
  const Preset preset = ActivePreset();
  Grid grid(spec.rows.size(), std::vector<Cell>(spec.cols.size()));
  Cells names;  // "<row label cells> @ <column label>", row-major
  std::vector<vod::SimConfig> configs;
  std::vector<vod::CapacitySearch> searches;  // capacity grids only
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    for (std::size_t c = 0; c < spec.cols.size(); ++c) {
      std::string name = spec.rows[r].label;
      for (const std::string& more : spec.rows[r].more_labels) {
        name += " " + more;
      }
      names.push_back(name + " @ " + spec.cols[c].label);
      vod::SimConfig& config = grid[r][c].config;
      config = BaseConfig(preset);
      for (const auto* tokens :
           {&spec.base, &spec.rows[r].tokens, &spec.cols[c].tokens}) {
        for (const std::string& token : *tokens) {
          const std::size_t eq = token.find('=');
          std::string error =
              eq == std::string::npos
                  ? "expected key=value"
                  : vod::SetConfigKnob(&config, token.substr(0, eq),
                                       token.substr(eq + 1));
          if (!error.empty()) {
            std::fprintf(stderr, "cell %s: token '%s': %s\n",
                         names.back().c_str(), token.c_str(), error.c_str());
            std::exit(1);
          }
        }
      }
      if (std::string error = config.Validate(); !error.empty()) {
        std::fprintf(stderr, "cell %s: %s\n", names.back().c_str(),
                     error.c_str());
        std::exit(1);
      }
      configs.push_back(config);
      if (spec.fixed_count) continue;
      vod::CapacitySearchOptions options;
      options.start_guess = 200;
      options.max_terminals = 2000;
      options.step = preset == Preset::kSmoke ? 20 : 5;
      options.replications = preset == Preset::kFull ? 3 : 1;
      options.jobs = JobsSetting();
      for (const SearchOverride& o :
           {spec.search, spec.rows[r].search, spec.cols[c].search}) {
        if (o.start_guess > 0) options.start_guess = o.start_guess;
        if (o.step > 0) options.step = o.step;
        if (o.ceiling > 0) options.max_terminals = o.ceiling;
      }
      searches.push_back({config, options});
    }
  }
  if (spec.title != nullptr) PrintHeader(spec.title, spec.paper_ref, preset);

  vod::ParallelRunner runner(JobsSetting());
  const std::vector<vod::SimMetrics> fixed =
      spec.fixed_count ? runner.RunAll(configs)
                       : std::vector<vod::SimMetrics>();
  const std::vector<vod::CapacityResult> found =
      vod::FindCapacities(searches, runner);
  for (std::size_t r = 0, i = 0; r < spec.rows.size(); ++r) {
    for (std::size_t c = 0; c < spec.cols.size(); ++c, ++i) {
      Cell& cell = grid[r][c];
      if (spec.fixed_count) {
        cell.terminals = cell.config.terminals;
        cell.metrics = fixed[i];
        NoteRealizedRuns(cell.config, cell.terminals, 1);
      } else {
        const vod::CapacitySearchOptions& options = searches[i].options;
        cell.terminals = found[i].max_terminals;
        cell.at_ceiling =
            found[i].max_terminals >= options.max_terminals - options.step;
        cell.metrics = found[i].at_capacity;
        cell.probes = found[i].probes;
        cell.replications = options.replications;
        for (const auto& [terminals, glitches] : cell.probes) {
          NoteRealizedRuns(cell.config, terminals, options.replications);
        }
      }
      std::fprintf(stderr, "  %s -> %s%s\n", names[i].c_str(),
                   spec.format(cell).c_str(),
                   cell.at_ceiling ? " (search ceiling reached)" : "");
    }
  }
  return grid;
}

// The grid as a table: the row label cells, each cell through
// spec.format, then the extra columns.
inline void PrintSweep(const Sweep& spec, const Grid& grid) {
  Cells headers = spec.corner;
  for (const SweepPoint& col : spec.cols) headers.push_back(col.label);
  headers.insert(headers.end(), spec.extra.begin(), spec.extra.end());
  vod::TextTable table(headers);
  for (std::size_t r = 0; r < grid.size(); ++r) {
    Cells row = {spec.rows[r].label};
    row.insert(row.end(), spec.rows[r].more_labels.begin(),
               spec.rows[r].more_labels.end());
    for (const Cell& cell : grid[r]) row.push_back(spec.format(cell));
    if (spec.extra_cells) {
      const Cells extra = spec.extra_cells(grid, r);
      row.insert(row.end(), extra.begin(), extra.end());
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace spiffi::bench

#endif  // SPIFFI_BENCH_SWEEP_H_
