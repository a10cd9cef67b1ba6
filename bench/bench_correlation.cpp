// E4 — reproduces the paper's Section 5.2 correlation claim: "we found a
// correlation of 0.7 between the objective function and the execution time
// of the experiment in the simulated environment."
//
// Method: across mappings of *varying quality* (the four heuristics, over
// repetitions of the high-level scenarios), simulate the same synthetic
// BSP distributed application on each valid mapping and compute the
// Pearson correlation between the mapping's load-balance factor (Eq. 10)
// and the simulated experiment makespan.
//
// Mechanism being exercised: an unbalanced mapping oversubscribes some
// host's CPU; its guests compute slower, their BSP neighbors wait, and the
// makespan stretches — exactly why the paper optimizes Eq. 10.
#include "bench_common.h"
#include "extensions/min_hosts_mapper.h"
#include "util/csv.h"
#include "core/objective.h"
#include "sim/master_worker.h"
#include "util/rng.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  expfw::GridSpec spec = paper_grid(/*simulate_experiment=*/true);
  // High-level scenarios only: the paper's correlation experiment targets
  // application-level workloads; this also keeps DES sizes moderate.
  spec.scenarios.resize(12);
  // Scale guest CPU demand into the contention regime (see Scenario::
  // vproc_scale): with Table 1's raw values no host is ever oversubscribed
  // and every mapping runs the experiment at the same speed, which would
  // make the paper's correlation claim unmeasurable by construction.  The
  // paper's own objective magnitudes (thousands of MIPS of residual-CPU
  // stddev) are only reachable with deeply negative residuals, i.e. heavy
  // oversubscription, so this regime matches the published evaluation.
  for (auto& scenario : spec.scenarios) scenario.vproc_scale = 6.0;
  // Low jitter so the CPU-contention signal is not drowned by per-guest
  // noise; modest messages so compute dominates, as in the paper's
  // compute-bound grid workloads.
  spec.experiment.jitter_fraction = 0.05;
  spec.experiment.message_kb = 16.0;
  // The mapper set spans the full quality range — the paper's four
  // heuristics plus the consolidating MinHosts mapper, whose deliberately
  // unbalanced placements anchor the high-objective end.
  const PaperMappers paper_mappers(bench_tries());
  const extensions::MinHostsMapper min_hosts;
  auto mappers = paper_mappers.all();
  mappers.push_back(&min_hosts);
  std::printf("correlation grid: %zu scenarios x %zu clusters x %zu mappers "
              "x %zu reps, with experiment simulation\n",
              spec.scenarios.size(), spec.clusters.size(), mappers.size(),
              spec.repetitions);

  const auto records = expfw::run_grid(spec, mappers);

  // Correlate per scenario-cluster cell (pooling across scenarios would
  // conflate instance size with balance), then report the pooled
  // correlation over standardized pairs and the per-cell mean.
  std::vector<double> cell_correlations;
  std::vector<double> all_obj, all_time;
  const auto csv_path = out_dir() / "correlation_pairs.csv";
  util::CsvWriter csv(csv_path.string());
  csv.row({"scenario", "cluster", "mapper", "rep", "objective",
           "experiment_seconds"});

  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (const auto kind : spec.clusters) {
      std::vector<double> obj, time;
      for (const auto& r : records) {
        if (r.scenario_index != s || r.cluster != kind || !r.ok ||
            r.experiment_seconds < 0.0) {
          continue;
        }
        obj.push_back(r.objective);
        time.push_back(r.experiment_seconds);
        csv.row({spec.scenarios[s].label(), to_string(kind), r.mapper,
                 std::to_string(r.repetition),
                 util::CsvWriter::num(r.objective),
                 util::CsvWriter::num(r.experiment_seconds)});
      }
      if (obj.size() >= 8) {
        const double rho = util::pearson(obj, time);
        cell_correlations.push_back(rho);
        std::printf("  %-12s %-9s: n=%3zu  rho=%+.3f\n",
                    spec.scenarios[s].label().c_str(), to_string(kind),
                    obj.size(), rho);
        // Standardize within the cell and pool.
        const double mo = util::mean(obj), so = util::stddev_sample(obj);
        const double mt = util::mean(time), st = util::stddev_sample(time);
        if (so > 0 && st > 0) {
          for (std::size_t i = 0; i < obj.size(); ++i) {
            all_obj.push_back((obj[i] - mo) / so);
            all_time.push_back((time[i] - mt) / st);
          }
        }
      }
    }
  }

  // Raw pooled correlation over every valid simulated run — the paper's
  // single-number method ("a correlation of 0.7"), which also picks up the
  // shared growth of objective and runtime with instance size.
  std::vector<double> raw_obj, raw_time;
  for (const auto& r : records) {
    if (r.ok && r.experiment_seconds >= 0.0) {
      raw_obj.push_back(r.objective);
      raw_time.push_back(r.experiment_seconds);
    }
  }
  const double raw_pooled = util::pearson(raw_obj, raw_time);
  const double pooled = util::pearson(all_obj, all_time);
  const double mean_cell = util::mean(cell_correlations);
  std::printf("\nraw pooled correlation (paper's method): %+.3f over %zu "
              "runs\n", raw_pooled, raw_obj.size());
  std::printf("pooled within-cell-standardized:          %+.3f over %zu "
              "pairs\n", pooled, all_obj.size());
  std::printf("mean per-cell correlation:                %+.3f over %zu "
              "cells\n", mean_cell, cell_correlations.size());
  std::printf("paper reports rho = 0.7; a positive, substantial raw pooled "
              "correlation reproduces the claim.\n");

  // Second application pattern: a master-worker farm (the grid parameter-
  // sweep shape).  A star virtual environment (one coordinator, 200
  // workers) is mapped by each heuristic; the farm's makespan is driven by
  // the slowest workers — i.e. by how evenly the mapper spread CPU load —
  // so its correlation with Eq. 10 cross-checks the BSP result under a
  // different communication structure.
  {
    std::vector<double> farm_obj, farm_time;
    for (std::size_t rep = 0; rep < spec.repetitions; ++rep) {
      const auto seed = util::derive_seed(env_seed(), 777, rep);
      const auto cluster = workload::make_paper_cluster(
          workload::ClusterKind::kSwitched, seed);
      util::Rng rng(seed + 1);
      model::VirtualEnvironment venv;
      const GuestId master = venv.add_guest({300, 192, 150});
      for (int w = 0; w < 200; ++w) {
        const GuestId worker = venv.add_guest(
            {6.0 * rng.uniform(50, 100), rng.uniform(128, 256),
             rng.uniform(100, 200)});
        venv.add_link(master, worker, {rng.uniform(0.5, 1.0), 60.0});
      }
      for (const core::Mapper* m : mappers) {
        const auto out = m->map(cluster, venv, seed);
        if (!out.ok()) continue;
        sim::MasterWorkerSpec farm;
        farm.tasks = 800;
        farm.seed = seed;
        const auto r =
            sim::run_master_worker(cluster, venv, *out.mapping, farm);
        farm_obj.push_back(
            core::load_balance_factor(cluster, venv, *out.mapping));
        farm_time.push_back(r.makespan_seconds);
      }
    }
    std::printf("\nmaster-worker farm cross-check: rho = %+.3f over %zu "
                "runs\n",
                util::pearson(farm_obj, farm_time), farm_obj.size());
  }
  csv_written(csv, csv_path);
  return 0;
}
