// E7 — google-benchmark microbenchmarks for the algorithmic substrate:
// Dijkstra, the modified A*Prune (with and without dominance pruning),
// the link router's forest walk against the search on a 1280-host tree,
// DFS variants, generators, and the three HMN stages in isolation — the
// Hosting and Migration stages also at E16's 1000-host size, empty and
// loaded — plus the Eqs. 2-3 certificate and the RA fallback on churn's
// loaded 40-host view, one defrag pass over churn's running tenants, the
// two per-admission copies of a fixed fabric: a loaded shard's residual
// view and the multilevel pyramid's coarse levels, and one multilevel
// admission on a loaded shard.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "baselines/composite_mappers.h"
#include "core/hosting.h"
#include "core/incremental.h"
#include "core/repair.h"
#include "core/hmn_mapper.h"
#include "core/migration.h"
#include "core/networking.h"
#include "graph/astar_prune.h"
#include "graph/dfs_path.h"
#include "graph/dijkstra.h"
#include "multilevel/multilevel_mapper.h"
#include "multilevel/physical_coarsener.h"
#include "orchestrator/defrag.h"
#include "orchestrator/orchestrator.h"
#include "sim/experiment.h"
#include "topology/partition.h"
#include "topology/topologies.h"
#include "workload/host_generator.h"
#include "workload/presets.h"
#include "workload/scenario.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;

const model::PhysicalCluster& torus_cluster() {
  static const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kTorus2D, 1);
  return cluster;
}

const model::VirtualEnvironment& scenario_venv(double ratio, double density,
                                               workload::WorkloadKind kind) {
  static std::map<std::string, model::VirtualEnvironment> cache;
  const workload::Scenario sc{ratio, density, kind};
  auto [it, inserted] = cache.try_emplace(sc.label());
  if (inserted) {
    it->second = workload::make_scenario_venv(sc, torus_cluster(), 2);
  }
  return it->second;
}

void BM_Dijkstra_Torus40(benchmark::State& state) {
  const auto& cluster = torus_cluster();
  auto lat = [&](EdgeId e) { return cluster.link(e).latency_ms; };
  for (auto _ : state) {
    auto sp = graph::dijkstra(cluster.graph(), NodeId{0}, lat);
    benchmark::DoNotOptimize(sp.dist.data());
  }
}
BENCHMARK(BM_Dijkstra_Torus40);

// The A*Prune benches search in one long-lived scratch, as LinkRouter does.
void BM_AStarPrune_Torus40(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  const auto& cluster = torus_cluster();
  auto bw = [&](EdgeId e) { return cluster.link(e).bandwidth_mbps; };
  auto lat = [&](EdgeId e) { return cluster.link(e).latency_ms; };
  graph::AStarPruneOptions opts;
  opts.prune_dominated = prune;
  graph::AStarPruneScratch scratch;
  unsigned dst = 1;
  for (auto _ : state) {
    dst = dst % 39 + 1;
    auto path = graph::astar_prune_bottleneck(cluster.graph(), NodeId{0},
                                              NodeId{dst}, 0.75, 45.0, bw,
                                              lat, opts, scratch);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_AStarPrune_Torus40)->Arg(1)->Arg(0)
    ->ArgName("dominance_pruning");

// The churn fabric: 40 hosts behind switches.
void BM_AStarPrune_Switched40(benchmark::State& state) {
  static const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 1);
  const auto& hosts = cluster.hosts();
  auto bw = [&](EdgeId e) { return cluster.link(e).bandwidth_mbps; };
  auto lat = [&](EdgeId e) { return cluster.link(e).latency_ms; };
  graph::AStarPruneScratch scratch;
  std::size_t dst = 1;
  for (auto _ : state) {
    dst = dst % (hosts.size() - 1) + 1;
    auto path = graph::astar_prune_bottleneck(cluster.graph(), hosts[0],
                                              hosts[dst], 0.75, 45.0, bw, lat,
                                              {}, scratch);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_AStarPrune_Switched40);

void BM_DfsPruned_Torus40(benchmark::State& state) {
  const auto& cluster = torus_cluster();
  auto bw = [&](EdgeId e) { return cluster.link(e).bandwidth_mbps; };
  auto lat = [&](EdgeId e) { return cluster.link(e).latency_ms; };
  unsigned dst = 1;
  for (auto _ : state) {
    dst = dst % 39 + 1;
    auto path = graph::dfs_find_path(cluster.graph(), NodeId{0}, NodeId{dst},
                                     0.75, 45.0, bw, lat);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_DfsPruned_Torus40);

void BM_DfsNaive_Torus40(benchmark::State& state) {
  const auto& cluster = torus_cluster();
  auto bw = [&](EdgeId e) { return cluster.link(e).bandwidth_mbps; };
  auto lat = [&](EdgeId e) { return cluster.link(e).latency_ms; };
  util::Rng rng(4);
  graph::DfsOptions opts;
  opts.rng = &rng;
  unsigned dst = 1;
  for (auto _ : state) {
    dst = dst % 39 + 1;
    auto path = graph::dfs_first_path(cluster.graph(), NodeId{0},
                                      NodeId{dst}, bw, lat, opts);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_DfsNaive_Torus40);

void BM_RandomConnectedGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  for (auto _ : state) {
    auto g = topology::random_connected_graph(n, 0.01, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RandomConnectedGraph)->Arg(100)->Arg(400)->Arg(2000)
    ->Complexity();

void BM_HostingStage(benchmark::State& state) {
  const auto ratio = static_cast<double>(state.range(0));
  const auto& venv = scenario_venv(
      ratio, ratio > 10 ? 0.01 : 0.02,
      ratio > 10 ? workload::WorkloadKind::kLowLevel
                 : workload::WorkloadKind::kHighLevel);
  for (auto _ : state) {
    core::ResidualState st(torus_cluster());
    auto r = core::run_hosting(venv, st);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_HostingStage)->Arg(5)->Arg(20)->Arg(50)->ArgName("ratio");

void BM_MigrationStage(benchmark::State& state) {
  const auto& venv = scenario_venv(5.0, 0.02,
                                   workload::WorkloadKind::kHighLevel);
  // Prepare a fresh hosting per iteration (migration mutates it).
  for (auto _ : state) {
    state.PauseTiming();
    core::ResidualState st(torus_cluster());
    auto hosted = core::run_hosting(venv, st);
    state.ResumeTiming();
    auto r = core::run_migration(venv, st, hosted.guest_host);
    benchmark::DoNotOptimize(r.migrations);
  }
}
BENCHMARK(BM_MigrationStage);

// E16's fabric and tenant: 1000 hosts with Table 1 capacities under a
// switch tree, and a memory-heavy tenant of 24-48 guests — the size of the
// multilevel refiner's whole-level pass.
const model::PhysicalCluster& tree1000_cluster() {
  static const auto cluster = [] {
    util::Rng rng(1);
    auto caps = workload::generate_hosts(1000, workload::paper_host_profile(),
                                         rng);
    return model::PhysicalCluster::build(topology::switch_tree(1000, 8, 4),
                                         std::move(caps),
                                         workload::paper_link_props());
  }();
  return cluster;
}

const model::VirtualEnvironment& tree1000_tenant() {
  static const auto venv = [] {
    util::Rng rng(2);
    workload::VenvGenOptions vopts;
    vopts.guest_count = 24 + rng.index(25);
    vopts.density = 0.2;
    vopts.profile = workload::high_level_profile();
    vopts.profile.mem_mb = {512.0, 1536.0};
    vopts.normalize_to = &tree1000_cluster();
    return workload::generate_venv(vopts, rng);
  }();
  return venv;
}

void BM_HostingStage_Tree1000(benchmark::State& state) {
  for (auto _ : state) {
    core::ResidualState st(tree1000_cluster());
    auto r = core::run_hosting(tree1000_tenant(), st);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_HostingStage_Tree1000);

void BM_MigrationStage_Tree1000(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::ResidualState st(tree1000_cluster());
    auto hosted = core::run_hosting(tree1000_tenant(), st);
    state.ResumeTiming();
    auto r = core::run_migration(tree1000_tenant(), st, hosted.guest_host);
    benchmark::DoNotOptimize(r.migrations);
  }
}
BENCHMARK(BM_MigrationStage_Tree1000);

// The same fabric loaded as the sharded workload's shards are: other
// tenants leave each host a seeded 5-100 % of its memory.  Most hosts then
// cannot take a memory-heavy guest, so Hosting's picks and Migration's
// target scan spend their time on hosts that fail Eqs. 2-3 — the
// multilevel refiner's whole-level pass on a busy shard.
const model::PhysicalCluster& tree1000_loaded_cluster() {
  static const auto cluster = [] {
    util::Rng rng(1);
    auto caps = workload::generate_hosts(1000, workload::paper_host_profile(),
                                         rng);
    util::Rng load(3);
    for (model::HostCapacity& c : caps) c.mem_mb *= load.uniform(0.05, 1.0);
    return model::PhysicalCluster::build(topology::switch_tree(1000, 8, 4),
                                         std::move(caps),
                                         workload::paper_link_props());
  }();
  return cluster;
}

void BM_HostingStage_Tree1000Loaded(benchmark::State& state) {
  for (auto _ : state) {
    core::ResidualState st(tree1000_loaded_cluster());
    auto r = core::run_hosting(tree1000_tenant(), st);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_HostingStage_Tree1000Loaded);

void BM_MigrationStage_Tree1000Loaded(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::ResidualState st(tree1000_loaded_cluster());
    auto hosted = core::run_hosting(tree1000_tenant(), st);
    state.ResumeTiming();
    auto r = core::run_migration(tree1000_tenant(), st, hosted.guest_host);
    benchmark::DoNotOptimize(r.migrations);
  }
}
BENCHMARK(BM_MigrationStage_Tree1000Loaded);

// The churn workload's residual view: the paper's 40-host switched
// cluster with each host left a seeded 5-70 % of its memory, and two of
// churn's tenants (4-10 guests of 512-1536 MB).  Both pass the aggregate
// and single-guest bounds of the Eqs. 2-3 certificate: RA packs the first
// (seed 1, 8 guests) on its second try, and no placement packs the second
// (seed 170, 9 guests), so RA's tries all fail.
const model::PhysicalCluster& churn40_view() {
  static const auto cluster = [] {
    util::Rng rng(1);
    auto caps = workload::generate_hosts(40, workload::paper_host_profile(),
                                         rng);
    util::Rng load(3);
    for (model::HostCapacity& c : caps) c.mem_mb *= load.uniform(0.05, 0.7);
    return model::PhysicalCluster::build(
        topology::switched(40, workload::kPaperSwitchPorts), std::move(caps),
        workload::paper_link_props());
  }();
  return cluster;
}

const model::VirtualEnvironment& churn40_tenant(bool unpackable) {
  const auto make = [](std::uint64_t seed) {
    util::Rng rng(seed);
    workload::VenvGenOptions vopts;
    vopts.guest_count = 4 + rng.index(7);
    vopts.density = 0.2;
    vopts.profile = workload::high_level_profile();
    vopts.profile.mem_mb = {512.0, 1536.0};
    return workload::generate_venv(vopts, rng);
  };
  static const auto packable_venv = make(1);
  static const auto unpackable_venv = make(170);
  return unpackable ? unpackable_venv : packable_venv;
}

void BM_CertifyInfeasible_Churn40(benchmark::State& state) {
  const auto& venv = churn40_tenant(state.range(0) != 0);
  double certified = 0.0;
  for (auto _ : state) {
    auto cert = core::certify_infeasible(churn40_view(), venv);
    benchmark::DoNotOptimize(cert);
    certified = cert.has_value() ? 1.0 : 0.0;
  }
  state.counters["certified"] = certified;
}
BENCHMARK(BM_CertifyInfeasible_Churn40)->Arg(0)->Arg(1)->ArgName("unpackable");

// The default pool's RA fallback (100 tries) on the unpackable tenant.
void BM_RandomAStar_Unpackable(benchmark::State& state) {
  const baselines::RandomAStarMapper ra(
      baselines::BaselineOptions{.max_tries = 100, .dfs_max_expansions = 0});
  std::size_t tries = 0;
  for (auto _ : state) {
    const auto out = ra.map(churn40_view(), churn40_tenant(true), 1);
    tries = out.stats.tries;
    benchmark::DoNotOptimize(out.error);
  }
  state.counters["tries"] = static_cast<double>(tries);
}
BENCHMARK(BM_RandomAStar_Unpackable);

// One defrag pass as perfbench churn runs it: the paper's 40-host switched
// cluster holding churn's running tenants (1.2x offered memory load, 4-10
// guests of 512-1536 MB, Pareto lifetimes), reached by replaying a churn
// trace through an orchestrator with defrag off up to its first departure
// after event 300, where churn would run a pass: departures have left
// their holes.  Every pass starts from that loaded manager, restored
// outside the timed region.
const emulator::TenancyManager::State& churn40_running() {
  static const auto state = [] {
    const auto cluster =
        workload::make_paper_cluster(workload::ClusterKind::kSwitched, 1);
    const auto trace = workload::generate_churn(
        bench::host_scale_churn(1.2, 240.0, 12.0, cluster), 5);
    orchestrator::OrchestratorOptions opts;
    opts.defrag_every_departures = 0;
    orchestrator::Orchestrator orch(cluster, trace.profile, opts);
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      (void)orch.handle(trace.events[i]);
      if (i >= 300 &&
          trace.events[i].kind == workload::EventKind::kDepart) {
        break;
      }
    }
    return orch.tenancy().export_state();
  }();
  return state;
}

void BM_DefragPass_Churn40(benchmark::State& state) {
  emulator::TenancyManager mgr(
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 1));
  orchestrator::DefragResult pass;
  for (auto _ : state) {
    state.PauseTiming();
    mgr.restore_state(churn40_running());
    state.ResumeTiming();
    pass = orchestrator::run_defrag(mgr);
    benchmark::DoNotOptimize(pass.committed);
  }
  state.counters["tenants"] = static_cast<double>(mgr.tenant_count());
  state.counters["migrations"] = static_cast<double>(pass.migrations);
  state.counters["links"] = static_cast<double>(pass.links_rerouted);
}
BENCHMARK(BM_DefragPass_Churn40);

// The sharded workload's fabric (E14's scaled switch tree at 1280 hosts),
// routed between 256 fixed random host pairs.  LinkRouter walks each unique
// path; BM_AStarPrune_Tree1280 runs the same queries through the search
// with a fresh ar[] Dijkstra per query, which is what a region router, built
// per call, paid on this fabric before it walked paths.
const model::PhysicalCluster& tree1280_cluster() {
  static const auto cluster = bench::scaled_switch_tree(1280, 1);
  return cluster;
}

const std::vector<std::pair<NodeId, NodeId>>& tree1280_pairs() {
  static const auto pairs = [] {
    const auto& hosts = tree1280_cluster().hosts();
    util::Rng rng(3);
    std::vector<std::pair<NodeId, NodeId>> out;
    while (out.size() < 256) {
      const NodeId s = hosts[rng.index(hosts.size())];
      const NodeId d = hosts[rng.index(hosts.size())];
      if (s != d) out.emplace_back(s, d);
    }
    return out;
  }();
  return pairs;
}

constexpr model::VirtualLinkDemand kTree1280Demand{0.75, 45.0};

void BM_LinkRouter_Tree1280(benchmark::State& state) {
  const core::ResidualState st(tree1280_cluster());
  core::LinkRouter router(st);
  const auto& pairs = tree1280_pairs();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, d] = pairs[i++ % pairs.size()];
    auto path = router.route(s, d, kTree1280Demand);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_LinkRouter_Tree1280);

void BM_AStarPrune_Tree1280(benchmark::State& state) {
  const auto& cluster = tree1280_cluster();
  auto bw = [&](EdgeId e) { return cluster.link(e).bandwidth_mbps; };
  auto lat = [&](EdgeId e) { return cluster.link(e).latency_ms; };
  graph::AStarPruneScratch scratch;
  const auto& pairs = tree1280_pairs();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, d] = pairs[i++ % pairs.size()];
    auto path = graph::astar_prune_bottleneck(
        cluster.graph(), s, d, kTree1280Demand.bandwidth_mbps,
        kTree1280Demand.max_latency_ms, bw, lat, {}, scratch);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_AStarPrune_Tree1280);

// The sharded workload's largest shard: partition_cluster cuts the
// 1280-host tree into 4 shards, the biggest of 768 hosts, and the shard's
// manager holds seeded tenants (HMN-admitted, 6-14 guests each) until
// about half its memory is reserved.  Every admission, heal and defrag
// pass on the shard starts from the residual view timed here.
const emulator::TenancyManager& shard768_manager() {
  static const auto mgr = [] {
    const auto part = topology::partition_cluster(tree1280_cluster(), 4);
    const topology::ClusterShard* big = &part.shards[0];
    for (const auto& sh : part.shards) {
      if (sh.cluster.host_count() > big->cluster.host_count()) big = &sh;
    }
    extensions::HeuristicPool pool;
    pool.add(std::make_unique<core::HmnMapper>());
    auto m = std::make_unique<emulator::TenancyManager>(big->cluster,
                                                        std::move(pool));
    util::Rng rng(5);
    for (std::uint64_t t = 0;
         t < 4096 && m->utilization().mem_fraction < 0.5; ++t) {
      workload::VenvGenOptions vopts;
      vopts.guest_count = 6 + rng.index(9);
      vopts.density = 0.3;
      vopts.profile = workload::high_level_profile();
      vopts.normalize_to = &m->cluster();
      (void)m->admit("t", workload::generate_venv(vopts, rng), t);
    }
    return m;
  }();
  return *mgr;
}

void BM_ResidualView_Shard768(benchmark::State& state) {
  const emulator::TenancyManager& mgr = shard768_manager();
  for (auto _ : state) {
    model::PhysicalCluster view = mgr.residual_cluster();
    benchmark::DoNotOptimize(view);
  }
  state.counters["hosts"] = static_cast<double>(mgr.cluster().host_count());
  state.counters["tenants"] = static_cast<double>(mgr.tenant_count());
}
BENCHMARK(BM_ResidualView_Shard768);

// The multilevel pyramid over the whole 1280-host tree: what each
// admission pays to re-aggregate capacities into the prebuilt levels.
void BM_MaterializeLevels_Tree1280(benchmark::State& state) {
  const auto& cluster = tree1280_cluster();
  static const auto hier = multilevel::build_hierarchy(
      cluster, multilevel::PhysicalCoarsenOptions{});
  for (auto _ : state) {
    auto levels = multilevel::materialize_levels(cluster, hier);
    benchmark::DoNotOptimize(levels);
  }
  state.counters["levels"] = static_cast<double>(hier.contractions.size());
}
BENCHMARK(BM_MaterializeLevels_Tree1280);

// One multilevel admission on the sharded workload's largest shard, with
// the pyramid built once and shared, as the router shares it.  HMN has
// admitted seeded tenants of the workload's shape (4-10 guests of
// 512-1536 MB) until 85 % of the shard's memory is reserved, so racks
// rarely carry a group's guests on their own hosts: the refiner widens its
// regions, spills to a whole-level pass and re-routes over regions of
// each level, as it does on perfbench sharded.
struct LoadedShard {
  std::shared_ptr<const multilevel::PhysicalHierarchy> hier;
  model::PhysicalCluster view;
};

const LoadedShard& shard768_loaded() {
  static const LoadedShard shard = [] {
    const auto part = topology::partition_cluster(tree1280_cluster(), 4);
    const topology::ClusterShard* big = &part.shards[0];
    for (const auto& sh : part.shards) {
      if (sh.cluster.host_count() > big->cluster.host_count()) big = &sh;
    }
    extensions::HeuristicPool pool;
    pool.add(std::make_unique<core::HmnMapper>());
    emulator::TenancyManager mgr(big->cluster, std::move(pool));
    util::Rng rng(5);
    for (std::uint64_t t = 0;
         t < 4096 && mgr.utilization().mem_fraction < 0.85; ++t) {
      workload::VenvGenOptions vopts;
      vopts.guest_count = 4 + rng.index(7);
      vopts.density = 0.2;
      vopts.profile = workload::high_level_profile();
      vopts.profile.mem_mb = {512.0, 1536.0};
      (void)mgr.admit("t", workload::generate_venv(vopts, rng), t);
    }
    auto hier = std::make_shared<const multilevel::PhysicalHierarchy>(
        multilevel::build_hierarchy(big->cluster,
                                    multilevel::MultilevelOptions{}.phys));
    return LoadedShard{std::move(hier), mgr.residual_cluster()};
  }();
  return shard;
}

void BM_MultilevelAdmit_LoadedShard768(benchmark::State& state) {
  const LoadedShard& shard = shard768_loaded();
  const multilevel::MultilevelMapper mapper({}, shard.hier);
  util::Rng rng(1);
  workload::VenvGenOptions vopts;
  vopts.guest_count = 4 + rng.index(7);
  vopts.density = 0.2;
  vopts.profile = workload::high_level_profile();
  vopts.profile.mem_mb = {512.0, 1536.0};
  const model::VirtualEnvironment venv = workload::generate_venv(vopts, rng);
  std::size_t levels = 0;
  for (auto _ : state) {
    const core::MapOutcome out = mapper.map(shard.view, venv, 1);
    levels = out.stats.levels_used;
    benchmark::DoNotOptimize(out);
  }
  state.counters["hosts"] = static_cast<double>(shard.view.host_count());
  state.counters["levels_used"] = static_cast<double>(levels);
}
BENCHMARK(BM_MultilevelAdmit_LoadedShard768);

void BM_NetworkingStage(benchmark::State& state) {
  const auto ratio = static_cast<double>(state.range(0));
  const auto& venv = scenario_venv(
      ratio, ratio > 10 ? 0.01 : 0.02,
      ratio > 10 ? workload::WorkloadKind::kLowLevel
                 : workload::WorkloadKind::kHighLevel);
  core::ResidualState base(torus_cluster());
  auto hosted = core::run_hosting(venv, base);
  for (auto _ : state) {
    state.PauseTiming();
    core::ResidualState st(torus_cluster());
    for (std::size_t g = 0; g < venv.guest_count(); ++g) {
      st.place(venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)}),
               hosted.guest_host[g]);
    }
    state.ResumeTiming();
    auto r = core::run_networking(venv, st, hosted.guest_host);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_NetworkingStage)->Arg(5)->Arg(20)->Arg(50)->ArgName("ratio");

void BM_HmnEndToEnd(benchmark::State& state) {
  const auto ratio = static_cast<double>(state.range(0));
  const auto& venv = scenario_venv(
      ratio, ratio > 10 ? 0.01 : 0.02,
      ratio > 10 ? workload::WorkloadKind::kLowLevel
                 : workload::WorkloadKind::kHighLevel);
  const core::HmnMapper mapper;
  for (auto _ : state) {
    auto out = mapper.map(torus_cluster(), venv, 1);
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_HmnEndToEnd)->Arg(5)->Arg(20)->Arg(50)->ArgName("ratio");

void BM_ExtendMapping(benchmark::State& state) {
  // Grow a mapped 5:1 instance by 10 guests per iteration (fresh copy each
  // time so the increment size is constant).
  const auto& venv = scenario_venv(5.0, 0.02,
                                   workload::WorkloadKind::kHighLevel);
  const core::HmnMapper mapper;
  const auto base = mapper.map(torus_cluster(), venv, 1);
  util::Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    model::VirtualEnvironment grown;
    for (std::size_t g = 0; g < venv.guest_count(); ++g) {
      grown.add_guest(venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)}));
    }
    for (std::size_t l = 0; l < venv.link_count(); ++l) {
      const auto id = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
      const auto ep = venv.endpoints(id);
      grown.add_link(ep.src, ep.dst, venv.link(id));
    }
    for (int i = 0; i < 10; ++i) {
      const GuestId g = grown.add_guest({75, 192, 150});
      const GuestId peer{static_cast<GuestId::underlying_type>(
          rng.index(venv.guest_count()))};
      grown.add_link(g, peer, {0.75, 45.0});
    }
    state.ResumeTiming();
    auto out = core::extend_mapping(torus_cluster(), grown, *base.mapping);
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_ExtendMapping);

void BM_RepairMapping(benchmark::State& state) {
  const auto& venv = scenario_venv(5.0, 0.02,
                                   workload::WorkloadKind::kHighLevel);
  const core::HmnMapper mapper;
  const auto base = mapper.map(torus_cluster(), venv, 1);
  unsigned host = 0;
  for (auto _ : state) {
    host = (host + 1) % 40;
    auto out = core::repair_mapping(torus_cluster(), venv, *base.mapping,
                                    NodeId{host});
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_RepairMapping);

void BM_ExperimentSimulation(benchmark::State& state) {
  const auto& venv = scenario_venv(5.0, 0.02,
                                   workload::WorkloadKind::kHighLevel);
  const core::HmnMapper mapper;
  const auto out = mapper.map(torus_cluster(), venv, 1);
  sim::ExperimentSpec spec;
  spec.iterations = 5;
  for (auto _ : state) {
    auto r = sim::run_experiment(torus_cluster(), venv, *out.mapping, spec);
    benchmark::DoNotOptimize(r.makespan_seconds);
  }
}
BENCHMARK(BM_ExperimentSimulation);

}  // namespace

BENCHMARK_MAIN();
