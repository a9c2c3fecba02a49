#include "harness/report.hpp"

#include <cmath>
#include <iostream>

namespace bm {

void print_bench_header(const std::string& experiment,
                        const std::string& paper_ref,
                        const std::string& workload, const RunOptions& opt) {
  std::cout << "================================================================\n"
            << experiment << '\n'
            << "Reproduces: " << paper_ref
            << " — Zaafrani, Dietz, O'Keefe, \"Static Scheduling for Barrier"
               " MIMD Architectures\" (1990)\n"
            << "Workload:   " << workload << '\n'
            << "Seeds:      " << opt.seeds << " benchmarks per point, base seed "
            << opt.base_seed << '\n'
            << "Jobs:       "
            << (opt.jobs == 0 ? std::string("auto")
                              : std::to_string(opt.jobs))
            << " worker(s), bit-identical to serial\n"
            << "================================================================\n";
}

void print_fraction_series(const std::string& x_label,
                           const std::vector<SeriesRow>& rows,
                           ArtifactWriter* artifacts,
                           const std::string& stem) {
  TextTable table({x_label, "barrier", "serialized", "static", "no-runtime",
                   "barriers/blk", "syncs/blk", "PEs used", "compl [min,max]"});
  for (const SeriesRow& row : rows) {
    const FractionAggregate& f = row.agg.fractions;
    table.add_row({row.x, TextTable::pct(f.barrier_frac.mean()),
                   TextTable::pct(f.serialized_frac.mean()),
                   TextTable::pct(f.static_frac.mean()),
                   TextTable::pct(f.no_runtime_frac.mean()),
                   TextTable::num(f.barriers.mean(), 2),
                   TextTable::num(f.implied_syncs.mean(), 1),
                   TextTable::num(f.procs_used.mean(), 1),
                   TextTable::interval(f.completion_min.mean(),
                                       f.completion_max.mean(), 1)});
  }
  table.render(std::cout);

  if (artifacts == nullptr) return;
  const std::string csv_path = artifacts->csv_path(stem);
  CsvWriter csv(csv_path);
  csv.write_row({x_label, "barrier_frac", "serialized_frac", "static_frac",
                 "no_runtime_frac", "barriers", "implied_syncs", "procs_used",
                 "completion_min", "completion_max"});
  for (const SeriesRow& row : rows) {
    const FractionAggregate& f = row.agg.fractions;
    csv.write_row({row.x, std::to_string(f.barrier_frac.mean()),
                   std::to_string(f.serialized_frac.mean()),
                   std::to_string(f.static_frac.mean()),
                   std::to_string(f.no_runtime_frac.mean()),
                   std::to_string(f.barriers.mean()),
                   std::to_string(f.implied_syncs.mean()),
                   std::to_string(f.procs_used.mean()),
                   std::to_string(f.completion_min.mean()),
                   std::to_string(f.completion_max.mean())});
  }
  for (const SeriesRow& row : rows) {
    const FractionAggregate& f = row.agg.fractions;
    const std::string key = x_label + "=" + row.x;
    artifacts->metric(key + ".barrier_frac", f.barrier_frac.mean());
    artifacts->metric(key + ".serialized_frac", f.serialized_frac.mean());
    artifacts->metric(key + ".static_frac", f.static_frac.mean());
    artifacts->metric(key + ".no_runtime_frac", f.no_runtime_frac.mean());
  }
  std::cout << "(series written to " << csv_path << ")\n";
}

std::string render_scatter(const std::vector<std::pair<double, double>>& xy,
                           double diagonal_level, std::size_t width,
                           std::size_t height) {
  std::vector<std::string> grid(height, std::string(width, ' '));
  auto to_col = [&](double x) {
    return std::min(width - 1, static_cast<std::size_t>(x * static_cast<double>(width)));
  };
  auto to_row = [&](double y) {
    const auto r = static_cast<std::size_t>((1.0 - y) * static_cast<double>(height));
    return std::min(height - 1, r);
  };
  // Reference line x + y = diagonal_level.
  for (std::size_t c = 0; c < width; ++c) {
    const double x = (static_cast<double>(c) + 0.5) / static_cast<double>(width);
    const double y = diagonal_level - x;
    if (y < 0.0 || y > 1.0) continue;
    grid[to_row(y)][c] = '.';
  }
  for (const auto& [x, y] : xy) {
    if (x < 0 || x > 1 || y < 0 || y > 1) continue;
    char& cell = grid[to_row(y)][to_col(x)];
    if (cell == ' ' || cell == '.')
      cell = '*';
    else if (cell == '*')
      cell = 'o';
    else if (cell == 'o')
      cell = '@';
  }
  std::string out;
  out += "serialized fraction (vertical, 0..1) vs static fraction "
         "(horizontal, 0..1); '.' marks x+y=" +
         TextTable::num(diagonal_level, 2) + "\n";
  for (std::size_t r = 0; r < height; ++r) {
    out += '|';
    out += grid[r];
    out += "|\n";
  }
  out += '+' + std::string(width, '-') + "+\n";
  return out;
}

}  // namespace bm
