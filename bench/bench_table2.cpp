// E1 — regenerates the paper's **Table 2**: mean objective function
// (load-balance factor, Eq. 10) for each scenario x cluster x heuristic,
// plus the total failure count per heuristic per cluster.
//
// Expected shape (paper Section 5.2):
//   * HMN achieves the lowest objective everywhere it succeeds, with its
//     margin over RA shrinking as the guest:host ratio grows (no migration
//     headroom on packed hosts);
//   * the DFS-based mappers (R, HS) fail heavily on the torus — naive DFS
//     paths wander beyond the latency bound — and succeed on the switched
//     cluster, where the only path is the 2-hop switch route;
//   * the A*Prune-based mappers (HMN, RA) almost never fail: "the main
//     responsible for the success in finding a mapping ... is the A*Prune
//     algorithm."
// Absolute magnitudes differ from the paper's (see EXPERIMENTS.md: the
// published values exceed the mathematical maximum of Eq. 10 under the
// published Table 1 parameters, so only orderings are reproducible).
#include "bench_common.h"

#include <map>

#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  const auto spec = paper_grid();
  const PaperMappers mappers(bench_tries());
  std::printf("Table 2 grid: %zu scenarios x %zu clusters x %zu mappers x "
              "%zu reps (HMN_BENCH_REPS/_TRIES/_SEED to adjust)\n",
              spec.scenarios.size(), spec.clusters.size(),
              mappers.all().size(), spec.repetitions);

  const auto records = expfw::run_grid(spec, mappers.all());
  const auto summary = expfw::summarize(records);
  const auto table = expfw::render_objective_table(
      spec.scenarios, spec.clusters, PaperMappers::names(), summary);

  std::printf("\nTable 2 — objective function (Eq. 10) and failures:\n%s",
              table.to_string().c_str());
  write_file(out_dir() / "table2_objective.csv", table.to_csv());

  // Sanity summary of the headline orderings.
  std::size_t hmn_best = 0, rows = 0;
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (const auto kind : spec.clusters) {
      const auto& hmn_cell = summary.cell(s, kind, "HMN");
      if (hmn_cell.objective.count() == 0) continue;
      ++rows;
      bool best = true;
      for (const auto& name : {"R", "RA", "HS"}) {
        const auto& cell = summary.cell(s, kind, name);
        if (cell.objective.count() > 0 &&
            cell.objective.mean() < hmn_cell.objective.mean()) {
          best = false;
        }
      }
      hmn_best += best ? 1 : 0;
    }
  }
  std::printf("\nHMN has the best objective in %zu of %zu populated rows\n",
              hmn_best, rows);
  for (const auto kind : spec.clusters) {
    for (const auto& name : PaperMappers::names()) {
      std::printf("  failures %-9s %-4s: %zu\n", to_string(kind),
                  name.c_str(), summary.total_failures(kind, name));
    }
  }

  // Statistical backing for the headline comparison: paired bootstrap CI
  // of (RA - HMN) objective per scenario on the switched cluster (where
  // both mappers succeed on every repetition).  A CI excluding zero means
  // HMN's advantage is significant at 95%.
  std::printf("\npaired bootstrap 95%% CI of objective difference RA - HMN "
              "(switched cluster):\n");
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    // Collect paired samples by repetition.
    std::map<std::size_t, std::pair<double, double>> by_rep;  // rep -> (hmn, ra)
    for (const auto& r : records) {
      if (r.scenario_index != s ||
          r.cluster != workload::ClusterKind::kSwitched || !r.ok) {
        continue;
      }
      if (r.mapper == "HMN") by_rep[r.repetition].first = r.objective;
      if (r.mapper == "RA") by_rep[r.repetition].second = r.objective;
    }
    std::vector<double> hmn_obj, ra_obj;
    for (const auto& [rep, pair] : by_rep) {
      if (pair.first > 0.0 && pair.second > 0.0) {
        hmn_obj.push_back(pair.first);
        ra_obj.push_back(pair.second);
      }
    }
    if (hmn_obj.size() < 3) continue;
    const auto ci = util::bootstrap_paired_diff_ci(ra_obj, hmn_obj);
    const bool significant = ci.lo > 0.0 || ci.hi < 0.0;
    std::printf("  %-12s  diff %+8.1f  CI [%+8.1f, %+8.1f]  %s\n",
                spec.scenarios[s].label().c_str(),
                util::mean(ra_obj) - util::mean(hmn_obj), ci.lo, ci.hi,
                significant ? "significant" : "n.s.");
  }
  return 0;
}
