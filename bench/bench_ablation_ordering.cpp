// E6 — ablation: link-ordering policy in the Hosting and Networking stages
// (Section 4.1's rationale: "the assignment starts from guests whose links
// have high bandwidth" so heavy links are co-located first and, in the
// Networking stage, routed while the fabric is still wide).
//
// Compares descending-bandwidth (the paper), ascending, and random
// ordering, plus the path-finder ablation A*Prune vs pruned DFS vs the
// bottleneck-blind naive DFS, on a bandwidth-tight torus workload where
// ordering decisions actually matter.
#include "bench_common.h"

#include "core/objective.h"
#include "core/validator.h"
#include "util/stats.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;

/// A deliberately bandwidth-tight instance: high-level guests whose links
/// are scaled up until aggregate demand stresses the torus edges.
model::VirtualEnvironment tight_venv(const model::PhysicalCluster& cluster,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  workload::VenvGenOptions opts;
  opts.guest_count = 200;
  opts.density = 0.02;
  opts.profile = workload::high_level_profile();
  opts.profile.link_bw_mbps = {15.0, 30.0};  // ~30x the paper's demand
  opts.normalize_to = &cluster;
  return workload::generate_venv(opts, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmn::bench;
  parse_args(argc, argv);

  const std::size_t reps = std::max<std::size_t>(bench_reps() / 3, 5);
  struct Variant {
    const char* name;
    core::HmnOptions opts;
  };
  std::vector<Variant> variants;
  for (const auto& [label, order] :
       std::initializer_list<std::pair<const char*, core::LinkOrder>>{
           {"desc (paper)", core::LinkOrder::kBandwidthDescending},
           {"ascending", core::LinkOrder::kBandwidthAscending},
           {"random", core::LinkOrder::kRandom}}) {
    core::HmnOptions o;
    o.hosting.order = order;
    o.networking.order = order;
    variants.push_back({label, o});
  }
  core::HmnOptions no_affinity;
  no_affinity.hosting.policy = core::HostingPolicy::kBalanceOnly;
  variants.push_back({"balance-only hosting", no_affinity});
  core::HmnOptions min_latency;
  min_latency.networking.algorithm = core::PathAlgorithm::kMinLatency;
  variants.push_back({"desc + min-latency", min_latency});
  core::HmnOptions pruned_dfs;
  pruned_dfs.networking.algorithm = core::PathAlgorithm::kDfsPruned;
  variants.push_back({"desc + pruned DFS", pruned_dfs});
  core::HmnOptions naive_dfs;
  naive_dfs.networking.algorithm = core::PathAlgorithm::kDfsNaive;
  naive_dfs.networking.randomize_dfs = true;
  variants.push_back({"desc + naive DFS", naive_dfs});

  util::Table table({"variant", "success", "lbf (mean)",
                     "bottleneck min bw (mean)", "map time (s)"});
  std::printf("ordering/path-finder ablation on a bandwidth-tight torus "
              "instance, %zu reps\n", reps);

  for (const auto& variant : variants) {
    const core::HmnMapper mapper(variant.opts);
    std::size_t successes = 0;
    util::RunningStats lbf, min_bw, time;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto seed = util::derive_seed(env_seed(), 99, rep);
      const auto cluster = workload::make_paper_cluster(
          workload::ClusterKind::kTorus2D, seed);
      const auto venv = tight_venv(cluster, seed + 1);
      const auto out = mapper.map(cluster, venv, seed);
      if (!out.ok()) continue;
      if (!core::validate_mapping(cluster, venv, *out.mapping).ok()) continue;
      ++successes;
      lbf.add(core::load_balance_factor(cluster, venv, *out.mapping));
      time.add(out.stats.total_seconds);
      // Worst residual bandwidth across physical links: how much headroom
      // the path-finder preserved.
      core::ResidualState st(cluster, venv, *out.mapping);
      double worst = 1e18;
      for (std::size_t e = 0; e < cluster.link_count(); ++e) {
        worst = std::min(worst, st.residual_bw(EdgeId{
            static_cast<EdgeId::underlying_type>(e)}));
      }
      min_bw.add(worst);
    }
    table.add_row({variant.name,
                   std::to_string(successes) + "/" + std::to_string(reps),
                   successes ? util::Table::fmt(lbf.mean(), 1) : "-",
                   successes ? util::Table::fmt(min_bw.mean(), 1) : "-",
                   successes ? util::Table::fmt(time.mean(), 4) : "-"});
  }
  std::printf("\n%s", table.to_string().c_str());
  write_file(out_dir() / "ablation_ordering.csv", table.to_csv());
  std::printf("\nExpected: descending order + A*Prune keeps the most "
              "bottleneck headroom and the highest success rate;\n"
              "ascending/random orderings and DFS path-finders strand "
              "heavy links on saturated edges.\n");

  // Section 5.2's affinity claim, quantified: instances where some virtual
  // links demand *more* than any physical link's 1 Gbps can only be mapped
  // by co-locating those links' endpoints.
  std::size_t affinity_ok = 0, blind_ok = 0;
  const core::HmnMapper affinity_mapper;
  core::HmnOptions blind;
  blind.hosting.policy = core::HostingPolicy::kBalanceOnly;
  const core::HmnMapper blind_mapper(blind);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto seed = util::derive_seed(env_seed(), 123, rep);
    const auto cluster = workload::make_paper_cluster(
        workload::ClusterKind::kTorus2D, seed);
    util::Rng rng(seed + 1);
    workload::VenvGenOptions opts;
    opts.guest_count = 100;
    opts.density = 0.02;
    opts.profile = workload::high_level_profile();
    opts.normalize_to = &cluster;
    auto venv = workload::generate_venv(opts, rng);
    // Add over-capacity pair links: 1.5-3 Gbps between fresh guest pairs.
    for (int i = 0; i < 10; ++i) {
      const GuestId a = venv.add_guest({75, 192, 150});
      const GuestId b = venv.add_guest({75, 192, 150});
      venv.add_link(a, b, {rng.uniform(1500.0, 3000.0), 60.0});
    }
    affinity_ok += affinity_mapper.map(cluster, venv, seed).ok() ? 1u : 0u;
    blind_ok += blind_mapper.map(cluster, venv, seed).ok() ? 1u : 0u;
  }
  std::printf("\nover-capacity links (10 links of 1.5-3 Gbps on a 1 Gbps "
              "fabric): affinity hosting %zu/%zu, link-blind hosting "
              "%zu/%zu\n", affinity_ok, reps, blind_ok, reps);
  return 0;
}
