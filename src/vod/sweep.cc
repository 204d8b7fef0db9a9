#include "vod/sweep.h"

#include <charconv>
#include <cstdlib>

#include "vod/config_knobs.h"
#include "vod/runner.h"
#include "vod/table.h"

namespace spiffi::vod {

std::string SizeToken(const std::string& key, const std::string& count,
                      std::int64_t unit) {
  std::int64_t n = 0;
  const char* end = count.data() + count.size();
  const auto [last, error] = std::from_chars(count.data(), end, n);
  if (error == std::errc() && last == end) return Token(key, n * unit);
  return key + "=" + count;
}

std::vector<SweepPoint> SizeAxis(const std::string& key,
                                 std::vector<std::int64_t> sizes,
                                 std::int64_t unit,
                                 const std::string& unit_name) {
  for (std::int64_t& size : sizes) size *= unit;
  return Axis(key, sizes, [&](std::int64_t bytes) {
    return std::to_string(bytes / unit) + " " + unit_name;
  });
}

std::string Gain(int terminals, int baseline) {
  const double ratio =
      baseline > 0 ? static_cast<double>(terminals) / baseline : 0.0;
  return "x" + FmtDouble(ratio, 2);
}

namespace {

// "<row label cells> @ <column label>".
std::string CellName(const Sweep& spec, std::size_t r, std::size_t c) {
  std::string name = spec.rows[r].label;
  for (const std::string& more : spec.rows[r].more_labels) name += " " + more;
  return name + " @ " + spec.cols[c].label;
}

}  // namespace

SimConfig CellConfig(const Sweep& spec, const SimConfig& base, std::size_t r,
                     std::size_t c) {
  SimConfig config = base;
  for (const auto* tokens :
       {&spec.base, &spec.rows[r].tokens, &spec.cols[c].tokens}) {
    for (const std::string& token : *tokens) {
      const std::size_t eq = token.find('=');
      std::string error = eq == std::string::npos
                              ? "expected key=value"
                              : SetConfigKnob(&config, token.substr(0, eq),
                                              token.substr(eq + 1));
      if (!error.empty()) {
        std::fprintf(stderr, "cell %s: token '%s': %s\n",
                     CellName(spec, r, c).c_str(), token.c_str(),
                     error.c_str());
        std::exit(1);
      }
    }
  }
  if (std::string error = config.Validate(); !error.empty()) {
    std::fprintf(stderr, "cell %s: %s\n", CellName(spec, r, c).c_str(),
                 error.c_str());
    std::exit(1);
  }
  return config;
}

Grid RunSweep(const Sweep& spec, const SimConfig& base,
              const CapacitySearchOptions& search) {
  Grid grid(spec.rows.size(), std::vector<Cell>(spec.cols.size()));
  std::vector<SimConfig> configs;
  std::vector<CapacitySearch> searches;  // capacity grids only
  for (std::size_t r = 0; r < spec.rows.size(); ++r) {
    for (std::size_t c = 0; c < spec.cols.size(); ++c) {
      grid[r][c].config = CellConfig(spec, base, r, c);
      const SimConfig& config = grid[r][c].config;
      configs.push_back(config);
      if (spec.fixed_count) continue;
      CapacitySearchOptions options = search;
      for (const SearchOverride& o :
           {spec.search, spec.rows[r].search, spec.cols[c].search}) {
        if (o.start_guess > 0) options.start_guess = o.start_guess;
        if (o.step > 0) options.step = o.step;
        if (o.ceiling > 0) options.max_terminals = o.ceiling;
      }
      searches.push_back({config, options});
    }
  }

  ParallelRunner runner(search.jobs);
  const std::vector<SimMetrics> fixed =
      spec.fixed_count ? runner.RunAll(configs) : std::vector<SimMetrics>();
  const std::vector<CapacityResult> found = FindCapacities(searches, runner);
  for (std::size_t r = 0, i = 0; r < spec.rows.size(); ++r) {
    for (std::size_t c = 0; c < spec.cols.size(); ++c, ++i) {
      Cell& cell = grid[r][c];
      if (spec.fixed_count) {
        cell.terminals = cell.config.terminals;
        cell.metrics = fixed[i];
        cell.probes = {{cell.terminals, cell.metrics.glitches}};
      } else {
        const CapacitySearchOptions& options = searches[i].options;
        cell.terminals = found[i].max_terminals;
        cell.at_ceiling =
            found[i].max_terminals >= options.max_terminals - options.step;
        cell.metrics = found[i].at_capacity;
        cell.probes = found[i].probes;
        cell.replications = options.replications;
      }
      std::fprintf(stderr, "  %s -> %s%s\n", CellName(spec, r, c).c_str(),
                   spec.format(cell).c_str(),
                   cell.at_ceiling ? " (search ceiling reached)" : "");
    }
  }
  return grid;
}

void PrintSweep(const Sweep& spec, const Grid& grid) {
  Cells headers = spec.corner;
  for (const SweepPoint& col : spec.cols) headers.push_back(col.label);
  headers.insert(headers.end(), spec.extra.begin(), spec.extra.end());
  TextTable table(headers);
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

}  // namespace spiffi::vod
