// End-to-end tests for the multilevel coarsen–map–refine mapper: validity
// against the paper's constraints, byte-identical determinism (including
// across hierarchy sharing and blast-failure churn), the flat fallback
// below min_hosts, and router integration (threads=1 vs N signatures).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/hmn_mapper.h"
#include "core/hosting.h"
#include "core/residual.h"
#include "core/validator.h"
#include "emulator/tenancy.h"
#include "model/physical_cluster.h"
#include "multilevel/multilevel_mapper.h"
#include "orchestrator/router.h"
#include "topology/contraction.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/presets.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;
using multilevel::MultilevelMapper;
using multilevel::MultilevelOptions;

model::PhysicalCluster make_fabric(std::size_t hosts) {
  auto topo = topology::switch_tree(hosts, 8, 4);
  // Short per-hop latency keeps the workload's 30-60 ms demands satisfiable
  // across the tree diameter at every size used here.
  return model::PhysicalCluster::build(
      std::move(topo),
      std::vector<model::HostCapacity>(hosts, {1000.0, 4096, 4096}),
      model::LinkProps{1000.0, 0.5});
}

model::VirtualEnvironment make_venv(std::size_t guests, std::uint64_t seed,
                                    const model::PhysicalCluster& fabric) {
  util::Rng rng(seed);
  workload::VenvGenOptions vopts;
  vopts.guest_count = guests;
  vopts.density = 0.2;
  vopts.profile = workload::high_level_profile();
  vopts.normalize_to = &fabric;
  return workload::generate_venv(vopts, rng);
}

TEST(MultilevelMapperTest, ProducesValidMappingThroughTheLevels) {
  const auto fabric = make_fabric(512);
  const auto venv = make_venv(24, 7, fabric);

  std::vector<std::string> stages;
  MultilevelOptions opts;
  opts.observer = [&stages](const multilevel::LevelEvent& e) {
    stages.push_back(e.stage);
  };
  const MultilevelMapper mapper(opts);
  const core::MapOutcome out = mapper.map(fabric, venv, 1);
  ASSERT_TRUE(out.ok()) << out.detail;
  // The pyramid was actually used, not the flat fallback.
  EXPECT_GT(out.stats.levels_used, 1u);
  EXPECT_EQ(std::count(stages.begin(), stages.end(), "coarse-solve"), 1);
  EXPECT_EQ(std::count_if(stages.begin(), stages.end(),
                          [](const std::string& s) {
                            return s.rfind("fallback", 0) == 0;
                          }),
            0);

  const auto report = core::validate_mapping(fabric, venv, *out.mapping);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(MultilevelMapperTest, ByteIdenticalAcrossRepeatedRuns) {
  const auto fabric = make_fabric(512);
  const auto venv = make_venv(20, 13, fabric);
  const MultilevelMapper mapper;

  const core::MapOutcome first = mapper.map(fabric, venv, 42);
  ASSERT_TRUE(first.ok()) << first.detail;
  const std::uint64_t fp = core::fingerprint(*first.mapping);
  for (int run = 0; run < 2; ++run) {
    const core::MapOutcome again = mapper.map(fabric, venv, 42);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(core::fingerprint(*again.mapping), fp);
  }
}

TEST(MultilevelMapperTest, SharedHierarchyMatchesLocalBuild) {
  const auto fabric = make_fabric(512);
  const auto venv = make_venv(20, 19, fabric);

  MultilevelOptions opts;
  const MultilevelMapper local(opts);
  auto hier = std::make_shared<const multilevel::PhysicalHierarchy>(
      multilevel::build_hierarchy(fabric, opts.phys));
  ASSERT_TRUE(hier->compatible(fabric));
  const MultilevelMapper shared(opts, hier);

  const core::MapOutcome a = local.map(fabric, venv, 5);
  const core::MapOutcome b = shared.map(fabric, venv, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(core::fingerprint(*a.mapping), core::fingerprint(*b.mapping));
  EXPECT_EQ(a.stats.levels_used, b.stats.levels_used);
}

TEST(MultilevelMapperTest, IncompatibleSharedHierarchyIsRebuiltLocally) {
  const auto fabric = make_fabric(512);
  const auto venv = make_venv(20, 29, fabric);

  MultilevelOptions opts;
  // A hierarchy built over a different fabric must not poison the mapping:
  // compatibility fails and the mapper rebuilds locally.
  const auto other = make_fabric(256);
  auto stale = std::make_shared<const multilevel::PhysicalHierarchy>(
      multilevel::build_hierarchy(other, opts.phys));
  ASSERT_FALSE(stale->compatible(fabric));
  const MultilevelMapper mapper(opts, stale);

  const core::MapOutcome out = mapper.map(fabric, venv, 5);
  ASSERT_TRUE(out.ok()) << out.detail;
  const auto report = core::validate_mapping(fabric, venv, *out.mapping);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(core::fingerprint(*out.mapping),
            core::fingerprint(*MultilevelMapper(opts).map(fabric, venv, 5)
                                   .mapping));
}

/// `fabric` with its node ids reversed: the same tree with the same node,
/// edge and host counts, capacities and links, but other ids.
model::PhysicalCluster reversed_ids(const model::PhysicalCluster& fabric) {
  const topology::Topology& topo = fabric.topology();
  const std::size_t n = topo.graph.node_count();
  auto flip = [n](NodeId v) {
    return NodeId{static_cast<NodeId::underlying_type>(n - 1 - v.index())};
  };
  topology::Topology reversed;
  reversed.graph = graph::Graph(n);
  for (std::size_t i = 0; i < n; ++i) {
    reversed.role.push_back(topo.role[n - 1 - i]);
  }
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < topo.graph.edge_count(); ++e) {
    const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
    reversed.graph.add_edge(flip(topo.graph.endpoints(id).a),
                            flip(topo.graph.endpoints(id).b));
    links.push_back(fabric.link(id));
  }
  std::vector<model::HostCapacity> caps;
  for (std::size_t i = n; i-- > 0;) {
    const NodeId v{static_cast<NodeId::underlying_type>(i)};
    if (fabric.is_host(v)) caps.push_back(fabric.capacity(v));
  }
  return model::PhysicalCluster::build(std::move(reversed), std::move(caps),
                                       std::move(links));
}

TEST(MultilevelMapperTest, SharedHierarchyOfAnotherWiringMapsLikeALocalBuild) {
  // Equal node, edge and host counts are not the same fabric: a pyramid
  // built over the tree must not serve the tree with its ids reversed.
  const auto fabric = make_fabric(512);
  const auto reversed = reversed_ids(fabric);
  ASSERT_EQ(reversed.node_count(), fabric.node_count());
  ASSERT_EQ(reversed.link_count(), fabric.link_count());
  ASSERT_EQ(reversed.host_count(), fabric.host_count());

  MultilevelOptions opts;
  auto hier = std::make_shared<const multilevel::PhysicalHierarchy>(
      multilevel::build_hierarchy(fabric, opts.phys));
  EXPECT_FALSE(hier->compatible(reversed));
  const MultilevelMapper shared(opts, hier);
  const MultilevelMapper local(opts);
  for (std::uint64_t t = 0; t < 20; ++t) {
    const auto venv = make_venv(20, util::derive_seed(61, t), reversed);
    const core::MapOutcome a = shared.map(reversed, venv, t);
    const core::MapOutcome b = local.map(reversed, venv, t);
    ASSERT_TRUE(b.ok()) << "tenant " << t << ": " << b.detail;
    ASSERT_TRUE(a.ok()) << "tenant " << t << ": " << a.detail;
    EXPECT_EQ(core::fingerprint(*a.mapping), core::fingerprint(*b.mapping))
        << "tenant " << t;
    EXPECT_EQ(a.stats.levels_used, b.stats.levels_used) << "tenant " << t;
  }
}

TEST(MultilevelMapperTest, ResidualViewsShareTheManagersFabric) {
  // The router prebuilds each shard's pyramid over the shard cluster, and
  // its manager hands the mapper residual views of a copy of that cluster.
  const auto fabric = make_fabric(256);
  MultilevelOptions opts;
  emulator::TenancyManager mgr(fabric);
  const multilevel::PhysicalHierarchy hier =
      multilevel::build_hierarchy(fabric, opts.phys);
  ASSERT_FALSE(hier.contractions.empty());
  EXPECT_EQ(mgr.residual_cluster().fabric(), fabric.fabric());
  const auto admitted = mgr.admit("t", make_venv(12, 5, fabric), 5);
  ASSERT_TRUE(admitted.ok()) << admitted.detail;
  mgr.set_node_down(fabric.hosts()[7], true);
  mgr.set_link_down(EdgeId{2}, true);
  EXPECT_EQ(mgr.residual_cluster().fabric(), hier.base);
  EXPECT_EQ(mgr.residual_cluster_excluding(*admitted.tenant).fabric(),
            hier.base);
  EXPECT_TRUE(hier.compatible(mgr.residual_cluster()));

  orchestrator::RouterOptions ropts;
  ropts.shards = 4;
  const orchestrator::PlacementRouter router(fabric, ropts);
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    EXPECT_EQ(router.shard_manager(s).residual_cluster().fabric(),
              router.shard(s).cluster.fabric())
        << "shard " << s;
  }
}

TEST(MultilevelMapperTest, DeterministicAcrossBlastFailureAndHeal) {
  const auto fabric = make_fabric(512);
  const auto venv = make_venv(18, 31, fabric);

  MultilevelOptions opts;
  auto hier = std::make_shared<const multilevel::PhysicalHierarchy>(
      multilevel::build_hierarchy(fabric, opts.phys));
  const MultilevelMapper mapper(opts, hier);

  const core::MapOutcome before = mapper.map(fabric, venv, 77);
  ASSERT_TRUE(before.ok());
  const std::uint64_t fp = core::fingerprint(*before.mapping);

  // Blast a rack: failures zero capacities but keep ids stable, so the
  // shared structural hierarchy remains compatible and the mapper routes
  // around the scar (or falls back — either way the mapping must be valid).
  model::PhysicalCluster scarred = fabric;
  scarred.fail_node(fabric.hosts()[0]);
  scarred.fail_node(fabric.hosts()[1]);
  scarred.fail_link(EdgeId{0});
  ASSERT_TRUE(hier->compatible(scarred));
  const core::MapOutcome during = mapper.map(scarred, venv, 77);
  if (during.ok()) {
    const auto report = core::validate_mapping(scarred, venv, *during.mapping);
    EXPECT_TRUE(report.ok()) << report.summary();
    // The failed hosts carry no guests.
    for (const NodeId h : during.mapping->guest_host) {
      EXPECT_NE(h, fabric.hosts()[0]);
      EXPECT_NE(h, fabric.hosts()[1]);
    }
  }

  // Healed (pristine capacities again): byte-identical to the pre-failure
  // mapping — the intervening scarred run left no state behind.
  const core::MapOutcome after = mapper.map(fabric, venv, 77);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(core::fingerprint(*after.mapping), fp);
}

TEST(MultilevelMapperTest, SmallClusterDelegatesToFlatHmn) {
  const auto fabric = make_fabric(64);
  const auto venv = make_venv(12, 41, fabric);

  MultilevelOptions opts;
  opts.min_hosts = 256;  // 64-host fabric sits below the threshold
  const MultilevelMapper mapper(opts);
  const core::HmnMapper flat;

  const core::MapOutcome ml = mapper.map(fabric, venv, 9);
  const core::MapOutcome hmn = flat.map(fabric, venv, 9);
  ASSERT_TRUE(ml.ok());
  ASSERT_TRUE(hmn.ok());
  EXPECT_EQ(ml.stats.levels_used, 0u);
  EXPECT_EQ(core::fingerprint(*ml.mapping), core::fingerprint(*hmn.mapping));
}

TEST(MultilevelMapperTest, RouterDelegationStaysThreadCountInvariant) {
  const auto fabric = make_fabric(256);

  std::vector<orchestrator::AdmissionRequest> requests;
  for (std::size_t i = 0; i < 12; ++i) {
    orchestrator::AdmissionRequest req;
    req.key = static_cast<std::uint32_t>(i + 1);
    req.venv = make_venv(6 + i % 5, util::derive_seed(3, i), fabric);
    req.seed = util::derive_seed(4, i);
    requests.push_back(std::move(req));
  }

  auto run = [&](std::size_t threads) {
    orchestrator::RouterOptions opts;
    opts.shards = 4;
    opts.threads = threads;
    // Route through the multilevel mapper on every shard: the thresholds
    // are tuned down so even ~64-host shards build a real pyramid.
    opts.multilevel_min_hosts = 32;
    opts.multilevel.phys.target_nodes = 16;
    opts.multilevel.virt.target_guests = 4;
    orchestrator::PlacementRouter router(fabric, opts);
    std::size_t admitted = 0;
    for (const auto& d : router.admit_batch(requests, 99)) {
      if (d.admitted) ++admitted;
    }
    return std::pair{admitted, router.decision_signature()};
  };

  const auto [admitted_serial, sig_serial] = run(1);
  const auto [admitted_parallel, sig_parallel] = run(4);
  EXPECT_GT(admitted_serial, 0u);
  EXPECT_EQ(admitted_serial, admitted_parallel);
  EXPECT_EQ(sig_serial, sig_parallel);
}

// ---- The refiner's check before a group try.

/// The state the refiner checks a group try on: `level`'s residuals
/// restricted to the hosts of `region`, with every guest `placed` puts
/// inside the region charged first, in ascending order.
core::ResidualState region_state(const model::PhysicalCluster& level,
                                 const std::vector<NodeId>& region,
                                 const model::VirtualEnvironment& venv,
                                 const std::vector<NodeId>& placed) {
  core::ResidualState state(level);
  std::vector<NodeId> hosts;
  for (const NodeId n : region) {
    if (level.is_host(n)) hosts.push_back(n);
  }
  state.restrict_hosts(hosts);
  for (std::size_t g = 0; g < placed.size(); ++g) {
    if (placed[g].valid() &&
        std::binary_search(region.begin(), region.end(), placed[g])) {
      state.place(venv.guest(GuestId{static_cast<unsigned>(g)}), placed[g]);
    }
  }
  return state;
}

/// Runs what the refiner's try_host runs on a region: Hosting of `group`
/// (with its internal links) on the subcluster `region` induces, with every
/// guest `placed` puts inside the region charged first, in ascending order.
bool hosting_succeeds(const model::PhysicalCluster& level,
                      const std::vector<NodeId>& region,
                      const model::VirtualEnvironment& venv,
                      const std::vector<NodeId>& placed,
                      const std::vector<GuestId>& group) {
  const topology::SubCluster sub = topology::induced_subcluster(level, region);
  core::ResidualState state(sub.cluster);
  for (std::size_t g = 0; g < placed.size(); ++g) {
    const auto at = std::lower_bound(sub.to_parent_node.begin(),
                                     sub.to_parent_node.end(), placed[g]);
    if (!placed[g].valid() || at == sub.to_parent_node.end() ||
        *at != placed[g]) {
      continue;
    }
    state.place(venv.guest(GuestId{static_cast<unsigned>(g)}),
                NodeId{static_cast<unsigned>(at - sub.to_parent_node.begin())});
  }
  model::VirtualEnvironment sub_venv;
  std::vector<std::size_t> local(venv.guest_count(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    local[group[i].index()] = i;
    (void)sub_venv.add_guest(venv.guest(group[i]));
  }
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    const VirtLinkId id{static_cast<unsigned>(l)};
    const auto ep = venv.endpoints(id);
    if (local[ep.src.index()] == group.size() ||
        local[ep.dst.index()] == group.size()) {
      continue;
    }
    (void)sub_venv.add_link(
        GuestId{static_cast<unsigned>(local[ep.src.index()])},
        GuestId{static_cast<unsigned>(local[ep.dst.index()])}, venv.link(id));
  }
  return core::run_hosting(sub_venv, state).ok;
}

TEST(UnhostableGuest, FiresOnlyWhereHostingFails) {
  util::Rng rng(1723);
  std::size_t fired = 0;
  std::size_t passed = 0;
  std::size_t passed_but_failed = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    // A loaded switch-tree level: other tenants leave each host 5-100 % of
    // its memory.
    const std::size_t hosts = 8 + rng.index(57);
    std::vector<model::HostCapacity> caps;
    for (std::size_t h = 0; h < hosts; ++h) {
      caps.push_back({1000.0, 4096.0 * rng.uniform(0.05, 1.0),
                      4096.0 * rng.uniform(0.5, 1.0)});
    }
    const auto level = model::PhysicalCluster::build(
        topology::switch_tree(hosts, 2 + rng.index(7), 2 + rng.index(3)),
        std::move(caps), model::LinkProps{1000.0, 1.0});

    // A region: the whole level, or a random subset of its nodes.
    std::vector<NodeId> region;
    const bool whole = rng.index(4) == 0;
    const double keep = rng.uniform(0.02, 0.4);
    for (std::size_t n = 0; n < level.node_count(); ++n) {
      if (whole || rng.uniform(0.0, 1.0) < keep) {
        region.push_back(NodeId{static_cast<unsigned>(n)});
      }
    }
    if (region.empty()) continue;

    model::VirtualEnvironment venv;
    const std::size_t guests = 2 + rng.index(14);
    for (std::size_t i = 0; i < guests; ++i) {
      venv.add_guest({static_cast<double>(rng.index(600)),
                      rng.uniform(256.0, 3072.0), rng.uniform(50.0, 400.0)});
    }
    for (std::size_t i = 1; i < guests; ++i) {
      if (rng.index(3) == 0) continue;
      venv.add_link(GuestId{static_cast<unsigned>(rng.index(i))},
                    GuestId{static_cast<unsigned>(i)}, {1.0, 60.0});
    }

    // Earlier groups' placements, anywhere on the level, each where it fit;
    // the rest of the guests form the group.
    std::vector<NodeId> placed(guests, NodeId::invalid());
    std::vector<GuestId> group;
    core::ResidualState charged(level);
    for (std::size_t i = 0; i < guests; ++i) {
      const GuestId guest{static_cast<unsigned>(i)};
      const NodeId h = level.hosts()[rng.index(hosts)];
      if (rng.index(2) == 0 && charged.fits(venv.guest(guest), h)) {
        charged.place(venv.guest(guest), h);
        placed[i] = h;
      } else {
        group.push_back(guest);
      }
    }
    if (group.empty()) continue;

    const bool ok = hosting_succeeds(level, region, venv, placed, group);
    const GuestId unhostable = multilevel::unhostable_guest(
        region_state(level, region, venv, placed), venv, group);
    if (unhostable.valid()) {
      ++fired;
      EXPECT_FALSE(ok) << "trial " << trial << ": guest "
                       << unhostable.value();
      EXPECT_NE(std::find(group.begin(), group.end(), unhostable),
                group.end());
    } else {
      ++passed;
      passed_but_failed += ok ? 0 : 1;
    }
  }
  // The battery reaches both outcomes, and the check is only a necessary
  // condition: some groups it lets through still fail Hosting.
  EXPECT_GT(fired, 100u);
  EXPECT_GT(passed, 100u);
  EXPECT_GT(passed_but_failed, 0u);
}

TEST(UnhostableGuest, NegativeDemandsNeverFire) {
  // A guest of -600 MB placed first would free room for the 700-MB guest
  // that fits nowhere now, so the check cannot name it.
  const auto level = model::PhysicalCluster::build(
      topology::switch_tree(2, 2, 2),
      std::vector<model::HostCapacity>(2, {1000.0, 512.0, 512.0}),
      model::LinkProps{1000.0, 1.0});
  model::VirtualEnvironment venv;
  const GuestId big = venv.add_guest({10.0, 700.0, 10.0});
  const GuestId frees = venv.add_guest({10.0, -600.0, 10.0});
  const core::ResidualState state(level);
  EXPECT_EQ(multilevel::unhostable_guest(state, venv, std::vector{big}), big);
  EXPECT_FALSE(
      multilevel::unhostable_guest(state, venv, std::vector{big, frees})
          .valid());
}

}  // namespace
