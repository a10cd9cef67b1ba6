#include "expfw/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "io/json.h"

namespace hmn::expfw {
namespace {

using util::Table;

std::vector<std::string> header_for(
    const std::vector<workload::ClusterKind>& clusters,
    const std::vector<std::string>& mappers) {
  std::vector<std::string> header{"scenario"};
  for (const auto kind : clusters) {
    for (const auto& m : mappers) {
      header.push_back(std::string(to_string(kind)) + " " + m);
    }
  }
  return header;
}

/// High-level and low-level blocks are separated by a rule, as in the
/// paper's tables.
bool workload_boundary(const std::vector<workload::Scenario>& scenarios,
                       std::size_t index) {
  return index > 0 &&
         scenarios[index].workload != scenarios[index - 1].workload;
}

}  // namespace

util::Table render_objective_table(
    const std::vector<workload::Scenario>& scenarios,
    const std::vector<workload::ClusterKind>& clusters,
    const std::vector<std::string>& mappers, const GridSummary& summary) {
  Table table(header_for(clusters, mappers));
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (workload_boundary(scenarios, s)) table.add_separator();
    std::vector<std::string> row{scenarios[s].label()};
    for (const auto kind : clusters) {
      for (const auto& m : mappers) {
        const CellSummary& cell = summary.cell(s, kind, m);
        row.push_back(cell.objective.count() > 0
                          ? Table::fmt(cell.objective.mean(), 1)
                          : "-");
      }
    }
    table.add_row(std::move(row));
  }
  table.add_separator();
  std::vector<std::string> failures{"Failures"};
  for (const auto kind : clusters) {
    for (const auto& m : mappers) {
      failures.push_back(std::to_string(summary.total_failures(kind, m)));
    }
  }
  table.add_row(std::move(failures));
  return table;
}

util::Table render_time_table(
    const std::vector<workload::Scenario>& scenarios,
    const std::vector<workload::ClusterKind>& clusters,
    const std::vector<std::string>& mappers, const GridSummary& summary) {
  Table table(header_for(clusters, mappers));
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (workload_boundary(scenarios, s)) table.add_separator();
    std::vector<std::string> row{scenarios[s].label()};
    for (const auto kind : clusters) {
      for (const auto& m : mappers) {
        const CellSummary& cell = summary.cell(s, kind, m);
        row.push_back(cell.map_seconds.count() > 0
                          ? Table::fmt(cell.map_seconds.mean(), 4)
                          : "-");
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::vector<SeriesPoint> figure1_series(
    const std::vector<workload::Scenario>& scenarios,
    workload::ClusterKind cluster, const std::string& mapper,
    const GridSummary& summary) {
  std::vector<SeriesPoint> pts;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const CellSummary& cell = summary.cell(s, cluster, mapper);
    if (cell.map_seconds.count() == 0) continue;
    pts.push_back({cell.links_routed.mean(), cell.map_seconds.mean(),
                   cell.map_seconds.stddev_sample(), scenarios[s].label()});
  }
  std::sort(pts.begin(), pts.end(),
            [](const SeriesPoint& a, const SeriesPoint& b) { return a.x < b.x; });
  return pts;
}

std::string render_series(const std::vector<SeriesPoint>& pts,
                          const std::string& x_label,
                          const std::string& y_label) {
  Table table({x_label, y_label + " (mean)", y_label + " (stddev)", "scenario"});
  double max_mean = 0.0;
  for (const SeriesPoint& p : pts) max_mean = std::max(max_mean, p.mean);
  for (const SeriesPoint& p : pts) {
    table.add_row({Table::fmt(p.x, 1), Table::fmt(p.mean, 4),
                   Table::fmt(p.stddev, 4), p.label});
  }

  std::ostringstream out;
  out << table.to_string();
  // Coarse ASCII plot: one bar per point, scaled to the largest mean.
  constexpr int kWidth = 50;
  out << '\n' << y_label << " vs " << x_label << " (bar = mean):\n";
  for (const SeriesPoint& p : pts) {
    const int bars =
        max_mean > 0.0
            ? std::max(1, static_cast<int>(std::lround(p.mean / max_mean * kWidth)))
            : 1;
    out << "  " << Table::fmt(p.x, 0);
    out << std::string(
        p.x >= 1.0 ? std::max<std::size_t>(1, 9 - Table::fmt(p.x, 0).size()) : 1,
        ' ');
    out << '|' << std::string(static_cast<std::size_t>(bars), '#') << ' '
        << Table::fmt(p.mean, 4) << "s\n";
  }
  return out.str();
}

std::string to_json(const std::vector<RunRecord>& records) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    if (i > 0) out << ',';
    out << "{\"scenario\":" << r.scenario_index
        << ",\"cluster\":" << io::json_string(to_string(r.cluster))
        << ",\"mapper\":" << io::json_string(r.mapper)
        << ",\"rep\":" << r.repetition << ",\"ok\":"
        << (r.ok ? "true" : "false")
        << ",\"objective\":" << io::json_number(r.objective)
        << ",\"map_seconds\":" << io::json_number(r.stats.total_seconds)
        << ",\"links_routed\":" << r.stats.links_routed
        << ",\"guests\":" << r.guests << ",\"virtual_links\":"
        << r.virtual_links << ",\"experiment_seconds\":"
        << io::json_number(r.experiment_seconds) << '}';
  }
  out << ']';
  return out.str();
}

}  // namespace hmn::expfw
