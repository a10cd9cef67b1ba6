// E5 — ablation: the Migration stage's contribution (Section 4.2).
//
// Runs full HMN against the Hosting+Networking-only variant ("HN") on the
// paper grid and reports the per-scenario objective improvement and the
// migration counts.  The paper's observation that HMN's "efficacy
// decreases as the number of guests to be mapped increases ... as more
// guests reduce the chance of migrations" shows up as the improvement
// shrinking toward zero at ratio 10:1 and above.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  expfw::GridSpec spec = paper_grid();
  spec.clusters = {workload::ClusterKind::kSwitched};  // topology-neutral

  const core::HmnMapper with_migration;
  core::HmnOptions off;
  off.enable_migration = false;
  const core::HmnMapper without_migration(off);
  // Extension variant: exhaustive steepest-descent victim selection
  // (VictimPolicy::kBestImprovement) — how much balance the paper's cheap
  // single-victim rule leaves on the table.
  core::HmnOptions deep;
  deep.migration.victim = core::VictimPolicy::kBestImprovement;
  deep.display_name = "HMN+";
  const core::HmnMapper best_improvement(deep);

  std::printf("migration ablation: %zu scenarios x %zu reps\n",
              spec.scenarios.size(), spec.repetitions);
  const auto records = expfw::run_grid(
      spec, {&with_migration, &without_migration, &best_improvement});
  const auto summary = expfw::summarize(records);

  util::Table table({"scenario", "HMN lbf", "HN lbf", "HMN+ lbf",
                     "improvement %", "migrations (mean)"});
  // Migration counts come from raw records (not aggregated).
  std::vector<double> migrations_per_scenario(spec.scenarios.size(), 0.0);
  std::vector<std::size_t> counts(spec.scenarios.size(), 0);
  for (const auto& r : records) {
    if (r.mapper == "HMN" && r.ok) {
      migrations_per_scenario[r.scenario_index] +=
          static_cast<double>(r.stats.migrations);
      ++counts[r.scenario_index];
    }
  }

  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    const auto& hmn_cell =
        summary.cell(s, workload::ClusterKind::kSwitched, "HMN");
    const auto& hn_cell =
        summary.cell(s, workload::ClusterKind::kSwitched, "HN");
    const auto& deep_cell =
        summary.cell(s, workload::ClusterKind::kSwitched, "HMN+");
    if (hmn_cell.objective.count() == 0 || hn_cell.objective.count() == 0) {
      table.add_row({spec.scenarios[s].label(), "-", "-", "-", "-", "-"});
      continue;
    }
    const double hmn_lbf = hmn_cell.objective.mean();
    const double hn_lbf = hn_cell.objective.mean();
    const double improvement =
        hn_lbf > 0.0 ? 100.0 * (hn_lbf - hmn_lbf) / hn_lbf : 0.0;
    const double mean_migrations =
        counts[s] > 0 ? migrations_per_scenario[s] /
                            static_cast<double>(counts[s])
                      : 0.0;
    table.add_row({spec.scenarios[s].label(), util::Table::fmt(hmn_lbf, 1),
                   util::Table::fmt(hn_lbf, 1),
                   deep_cell.objective.count() > 0
                       ? util::Table::fmt(deep_cell.objective.mean(), 1)
                       : "-",
                   util::Table::fmt(improvement, 1),
                   util::Table::fmt(mean_migrations, 1)});
  }
  std::printf("\nMigration-stage ablation (switched cluster):\n%s",
              table.to_string().c_str());
  write_file(out_dir() / "ablation_migration.csv", table.to_csv());
  return 0;
}
