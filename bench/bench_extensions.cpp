// E8 — extension study (the paper's Section 6 future work): alternative
// optimization goals and the heuristic pool.
//
// Compares the load-balancing HMN against the consolidating MinHosts
// mapper under three objectives (load balance, hosts used, network
// footprint), and measures how often the HMN->RA fallback pool rescues an
// instance HMN alone cannot map.
#include "bench_common.h"

#include "core/validator.h"
#include "extensions/heuristic_pool.h"
#include "extensions/greedy_rank_mapper.h"
#include "extensions/min_hosts_mapper.h"
#include "extensions/objectives.h"
#include "util/stats.h"
#include "workload/venv_generator.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  const std::size_t reps = std::max<std::size_t>(bench_reps() / 3, 5);
  const core::HmnMapper hmn_mapper;
  const extensions::MinHostsMapper min_hosts;
  const extensions::GreedyRankMapper greedy_rank;
  const extensions::LoadBalanceObjective lbf;
  const extensions::MinHostsObjective hosts_used;
  const extensions::NetworkFootprintObjective footprint;

  const std::vector<workload::Scenario> scenarios{
      {2.5, 0.02, workload::WorkloadKind::kHighLevel},
      {5.0, 0.02, workload::WorkloadKind::kHighLevel},
      {10.0, 0.02, workload::WorkloadKind::kHighLevel},
      {20.0, 0.01, workload::WorkloadKind::kLowLevel},
  };

  util::Table table({"scenario", "mapper", "lbf", "hosts used",
                     "net footprint (Mbps-hops)"});
  for (const auto& scenario : scenarios) {
    for (const core::Mapper* mapper :
         std::initializer_list<const core::Mapper*>{&hmn_mapper, &greedy_rank,
                                                    &min_hosts}) {
      util::RunningStats s_lbf, s_hosts, s_fp;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto seed = util::derive_seed(env_seed(), 7, rep);
        const auto cluster = workload::make_paper_cluster(
            workload::ClusterKind::kSwitched, seed);
        const auto venv =
            workload::make_scenario_venv(scenario, cluster, seed + 1);
        const auto out = mapper->map(cluster, venv, seed);
        if (!out.ok()) continue;
        s_lbf.add(lbf.evaluate(cluster, venv, *out.mapping));
        s_hosts.add(hosts_used.evaluate(cluster, venv, *out.mapping));
        s_fp.add(footprint.evaluate(cluster, venv, *out.mapping));
      }
      table.add_row({scenario.label(), mapper->name(),
                     util::Table::fmt(s_lbf.mean(), 1),
                     util::Table::fmt(s_hosts.mean(), 1),
                     util::Table::fmt(s_fp.mean(), 1)});
    }
  }
  std::printf("objective trade-offs (switched cluster, %zu reps):\n%s",
              reps, table.to_string().c_str());
  write_file(out_dir() / "extensions_objectives.csv", table.to_csv());

  // Heuristic pool rescue rate on instances generated *without* the
  // feasibility normalization (so hosting failures actually occur).
  std::size_t hmn_ok = 0, pool_ok = 0, total = 0;
  const auto pool = extensions::default_pool();
  for (std::size_t rep = 0; rep < reps * 4; ++rep) {
    const auto seed = util::derive_seed(env_seed(), 13, rep);
    const auto cluster = workload::make_paper_cluster(
        workload::ClusterKind::kSwitched, seed);
    util::Rng rng(seed + 1);
    workload::VenvGenOptions opts;
    opts.guest_count = 400;
    opts.density = 0.015;
    opts.profile = workload::high_level_profile();
    opts.normalize_to = &cluster;
    opts.capacity_fraction = 0.93;  // deliberately tight packing
    const auto venv = workload::generate_venv(opts, rng);
    ++total;
    if (hmn_mapper.map(cluster, venv, seed).ok()) ++hmn_ok;
    if (pool.first_success(cluster, venv, seed).ok()) ++pool_ok;
  }
  std::printf("\ntight 10:1 instances (93%% aggregate memory): HMN alone "
              "%zu/%zu, HMN->RA pool %zu/%zu\n",
              hmn_ok, total, pool_ok, total);
  return 0;
}
