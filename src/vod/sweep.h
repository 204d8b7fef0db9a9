// One capacity-sweep driver for the figure harnesses and the examples.
//
// Every table of the paper's evaluation (§7-§8) is the same experiment:
// the maximum glitch-free terminal count (a FindCapacities search), taken
// over a grid of config variants. A caller declares that grid as a Sweep
// — a row axis and a column axis of labelled `key=value` deltas (the knob
// keys of vod/config_knobs.h) — RunSweep runs it, and PrintSweep prints
// it as a table.
//
// Adding a figure:
//  1. Write the spec: the `base` tokens every cell shares, and the two
//     axes. A cell's config is the base config given to RunSweep (a
//     harness's bench::RunSweep passes its preset's BaseConfig), then
//     `base`, then the row's tokens, then the column's, so a column token
//     overrides a row token of the same key.
//  2. Pick the measure: a capacity search (the default; a point's
//     `search` overrides the caller's start guess, step and ceiling, a
//     column's over a row's over the spec's), or with `fixed_count` one
//     run at the `terminals=N` the tokens set.
//  3. Pick the cell text: `format` (default: the capacity found), plus
//     any `extra` columns derived from the grid.
//  4. In bench/: print the header with bench::PrintHeader, add the
//     harness to bench/CMakeLists.txt, both as a binary and in the
//     BenchGolden list, and capture its golden:
//     `build/bench/<name> --smoke --jobs 2 > bench/testdata/<name>.smoke.txt`.
// What is not a cell of one grid — ratios across rows, reading notes —
// stays with the caller, computed from the grid RunSweep returns.

#ifndef SPIFFI_VOD_SWEEP_H_
#define SPIFFI_VOD_SWEEP_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "vod/capacity.h"
#include "vod/config.h"
#include "vod/metrics.h"

namespace spiffi::vod {

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
  SimConfig config;
  int terminals = 0;        // the capacity found, or the fixed count
  bool at_ceiling = false;  // the search ended within a step of its ceiling
  SimMetrics metrics;       // at capacity, or of the fixed-count run
  // The realized points the cell rests on, in order: (terminal count,
  // total glitches over the replications) of each probe of the search,
  // or of the one fixed-count run. `replications` runs per point.
  std::vector<std::pair<int, std::uint64_t>> probes;
  int replications = 1;
};
using Grid = std::vector<std::vector<Cell>>;  // [row][column]

struct Sweep {
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

// `key=<count * unit>`. A count that is not a whole number passes
// through unscaled, for CellConfig to refuse.
std::string SizeToken(const std::string& key, const std::string& count,
                      std::int64_t unit);

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
std::vector<SweepPoint> SizeAxis(const std::string& key,
                                 std::vector<std::int64_t> sizes,
                                 std::int64_t unit,
                                 const std::string& unit_name);

// "x<ratio>" of a capacity to a baseline's, "x0.00" without a baseline.
std::string Gain(int terminals, int baseline);

// The config of cell (r, c): `base`, then the spec's, the row's and the
// column's tokens. A token SetConfigKnob rejects, or a config Validate()
// rejects, prints "cell <row> @ <column>: <why>" to stderr and exits
// with status 1.
SimConfig CellConfig(const Sweep& spec, const SimConfig& base, std::size_t r,
                     std::size_t c);

// Builds every cell's CellConfig, so a bad spec exits before anything
// runs, then runs the grid on one ParallelRunner of `search.jobs`
// workers: capacity cells as one FindCapacities batch whose searches
// start from `search`, fixed-count cells as one RunAll batch. Both build
// one video library per distinct library key and seed of the grid. Each
// finished cell prints a "  <row> @ <column> -> <text>" line to stderr.
Grid RunSweep(const Sweep& spec, const SimConfig& base,
              const CapacitySearchOptions& search);

// The grid as a table on stdout: the row label cells, each cell through
// spec.format, then the extra columns.
void PrintSweep(const Sweep& spec, const Grid& grid);

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_SWEEP_H_
