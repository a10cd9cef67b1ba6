// E9 — the paper's "acceptable time" argument (Section 5.2): mapping time
// is acceptable "considering that the time to deploy such virtual
// environment tend to be greater than that" (citing Quetier et al.'s V-DS
// deployments).  This bench quantifies the comparison: HMN mapping time
// vs. estimated image-deployment time (transfer + boot) for every paper
// scenario on the torus cluster, plus the deployment difference between a
// balanced (HMN) and a consolidated (MinHosts) placement.
#include "bench_common.h"

#include "extensions/min_hosts_mapper.h"
#include "sim/deployment.h"
#include "util/rng.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  const std::size_t reps = std::max<std::size_t>(bench_reps() / 3, 5);
  const core::HmnMapper hmn_mapper;
  const extensions::MinHostsMapper min_hosts;

  util::Table table({"scenario", "map time (s)", "deploy time (s)",
                     "deploy/map ratio", "deploy consolidated (s)",
                     "images (GB)"});
  std::printf("deployment-vs-mapping comparison (torus cluster, %zu reps)\n",
              reps);

  for (const auto& scenario : workload::paper_scenarios()) {
    util::RunningStats map_time, deploy_time, deploy_packed, volume;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto seed = util::derive_seed(env_seed(), 17, rep);
      const auto cluster = workload::make_paper_cluster(
          workload::ClusterKind::kTorus2D, seed);
      const auto venv =
          workload::make_scenario_venv(scenario, cluster, seed + 1);

      const auto out = hmn_mapper.map(cluster, venv, seed);
      if (!out.ok()) continue;
      map_time.add(out.stats.total_seconds);
      const auto deployment =
          sim::estimate_deployment(cluster, venv, *out.mapping);
      deploy_time.add(deployment.total_seconds);
      volume.add(static_cast<double>(deployment.bytes_moved_gb));

      const auto packed = min_hosts.map(cluster, venv, seed);
      if (packed.ok()) {
        deploy_packed.add(
            sim::estimate_deployment(cluster, venv, *packed.mapping)
                .total_seconds);
      }
    }
    if (map_time.count() == 0) {
      table.add_row({scenario.label(), "-", "-", "-", "-", "-"});
      continue;
    }
    table.add_row(
        {scenario.label(), util::Table::fmt(map_time.mean(), 4),
         util::Table::fmt(deploy_time.mean(), 1),
         util::Table::fmt(deploy_time.mean() / map_time.mean(), 0),
         deploy_packed.count() > 0
             ? util::Table::fmt(deploy_packed.mean(), 1)
             : "-",
         util::Table::fmt(volume.mean(), 0)});
  }
  std::printf("\n%s", table.to_string().c_str());
  write_file(out_dir() / "deployment_vs_mapping.csv", table.to_csv());
  std::printf("\nThe deploy/map ratio quantifies the paper's claim that "
              "mapping cost is negligible next to deployment;\n"
              "the consolidated column shows deployment slowing when few "
              "hosts absorb all images (sequential boots).\n");
  return 0;
}
