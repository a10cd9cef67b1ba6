// Coarsen/uncoarsen invariants for the multilevel pipeline: per-level
// resource and bandwidth conservation, partition structure of the merge
// history, exact round-trip of projections, member-cap enforcement, and
// byte-identical repeatability — for both the virtual and the physical
// coarseners.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "model/physical_cluster.h"
#include "model/virtual_environment.h"
#include "multilevel/physical_coarsener.h"
#include "multilevel/virtual_coarsener.h"
#include "topology/contraction.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/presets.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;
using multilevel::PhysicalCoarsenOptions;
using multilevel::PhysicalHierarchy;
using multilevel::VirtualCoarsenOptions;
using multilevel::VirtualHierarchy;
using multilevel::VirtualLevel;

model::VirtualEnvironment make_venv(std::size_t guests, std::uint64_t seed) {
  util::Rng rng(seed);
  workload::VenvGenOptions vopts;
  vopts.guest_count = guests;
  vopts.density = 0.25;
  vopts.profile = workload::high_level_profile();
  return workload::generate_venv(vopts, rng);
}

GuestId gid(std::size_t i) {
  return GuestId{static_cast<GuestId::underlying_type>(i)};
}

VirtLinkId lid(std::size_t i) {
  return VirtLinkId{static_cast<VirtLinkId::underlying_type>(i)};
}

/// Checks one VirtualLevel against the venv it was built over: members
/// partition the finer guest set, requirements are conserved exactly, and
/// crossing bandwidth is conserved (finer total == coarse total + the
/// finer links that became internal).
void check_level(const model::VirtualEnvironment& finer,
                 const VirtualLevel& level) {
  ASSERT_EQ(level.coarse_of_guest.size(), finer.guest_count());
  ASSERT_EQ(level.coarse_of_link.size(), finer.link_count());
  ASSERT_EQ(level.members.size(), level.coarse.guest_count());

  // members[] is a partition of the finer guests, consistent with
  // coarse_of_guest, ascending within each group.
  std::size_t covered = 0;
  for (std::size_t grp = 0; grp < level.members.size(); ++grp) {
    ASSERT_FALSE(level.members[grp].empty());
    covered += level.members[grp].size();
    model::GuestRequirements sum;
    for (std::size_t i = 0; i < level.members[grp].size(); ++i) {
      const GuestId g = level.members[grp][i];
      EXPECT_EQ(level.coarse_of_guest[g.index()], gid(grp));
      if (i > 0) {
        EXPECT_LT(level.members[grp][i - 1].value(), g.value());
      }
      sum.proc_mips += finer.guest(g).proc_mips;
      sum.mem_mb += finer.guest(g).mem_mb;
      sum.stor_gb += finer.guest(g).stor_gb;
    }
    // Super-guest requirements are the exact member sums.
    EXPECT_DOUBLE_EQ(level.coarse.guest(gid(grp)).proc_mips, sum.proc_mips);
    EXPECT_DOUBLE_EQ(level.coarse.guest(gid(grp)).mem_mb, sum.mem_mb);
    EXPECT_DOUBLE_EQ(level.coarse.guest(gid(grp)).stor_gb, sum.stor_gb);
  }
  EXPECT_EQ(covered, finer.guest_count());

  // Bandwidth conservation: every finer link either became internal or
  // contributes its bandwidth to exactly one coarse link.
  double finer_bw = 0.0, internal_bw = 0.0;
  for (std::size_t l = 0; l < finer.link_count(); ++l) {
    finer_bw += finer.link(lid(l)).bandwidth_mbps;
    const VirtLinkId cl = level.coarse_of_link[l];
    const auto ep = finer.endpoints(lid(l));
    if (!cl.valid()) {
      internal_bw += finer.link(lid(l)).bandwidth_mbps;
      // Internal means the endpoints merged.
      EXPECT_EQ(level.coarse_of_guest[ep.src.index()],
                level.coarse_of_guest[ep.dst.index()]);
      continue;
    }
    // Crossing: the coarse link joins the endpoint groups, its latency
    // bound is at most this member's (strictest member governs), and a
    // critical member makes the trunk critical.
    const auto cep = level.coarse.endpoints(cl);
    const GuestId ga = level.coarse_of_guest[ep.src.index()];
    const GuestId gb = level.coarse_of_guest[ep.dst.index()];
    EXPECT_TRUE((cep.src == ga && cep.dst == gb) ||
                (cep.src == gb && cep.dst == ga));
    EXPECT_LE(level.coarse.link(cl).max_latency_ms,
              finer.link(lid(l)).max_latency_ms);
    if (finer.link(lid(l)).critical) {
      EXPECT_TRUE(level.coarse.link(cl).critical);
    }
  }
  double coarse_bw = 0.0;
  for (std::size_t l = 0; l < level.coarse.link_count(); ++l) {
    coarse_bw += level.coarse.link(lid(l)).bandwidth_mbps;
  }
  EXPECT_NEAR(finer_bw, coarse_bw + internal_bw, 1e-9 * (1.0 + finer_bw));
}

TEST(VirtualCoarsenTest, LevelsConserveResourcesAndBandwidth) {
  const auto base = make_venv(40, 11);
  VirtualCoarsenOptions opts;
  opts.target_guests = 6;
  const VirtualHierarchy h = multilevel::coarsen_virtual(base, opts);
  ASSERT_FALSE(h.empty());

  const model::VirtualEnvironment* finer = &base;
  for (const VirtualLevel& level : h.levels) {
    check_level(*finer, level);
    EXPECT_LT(level.coarse.guest_count(), finer->guest_count());
    finer = &level.coarse;
  }
  // Aggregate demand is invariant across the whole pyramid.
  EXPECT_NEAR(h.coarsest(base).total_vproc_mips(), base.total_vproc_mips(),
              1e-9 * (1.0 + base.total_vproc_mips()));
  EXPECT_NEAR(h.coarsest(base).total_vmem_mb(), base.total_vmem_mb(),
              1e-9 * (1.0 + base.total_vmem_mb()));
}

TEST(VirtualCoarsenTest, MemberCapBoundsSuperGuestSize) {
  // 48 guests cannot shrink to 4 super-guests of at most kMaxMembers each,
  // so the cap binds.
  const auto base = make_venv(48, 23);
  VirtualCoarsenOptions opts;
  opts.target_guests = 4;
  const VirtualHierarchy h = multilevel::coarsen_virtual(base, opts);
  ASSERT_FALSE(h.empty());

  // Compose the merge history: how many *base* guests each coarsest
  // super-guest absorbed.  The cap applies to that composed count.
  std::vector<std::size_t> owner(base.guest_count());
  for (std::size_t g = 0; g < owner.size(); ++g) owner[g] = g;
  for (const VirtualLevel& level : h.levels) {
    for (auto& o : owner) o = level.coarse_of_guest[o].index();
  }
  std::vector<std::size_t> absorbed(h.coarsest(base).guest_count(), 0);
  for (const std::size_t o : owner) ++absorbed[o];
  for (const std::size_t n : absorbed) {
    EXPECT_LE(n, multilevel::kMaxMembers);
  }
}

TEST(VirtualCoarsenTest, ProjectionRoundTripsExactly) {
  const auto base = make_venv(32, 37);
  VirtualCoarsenOptions opts;
  opts.target_guests = 5;
  const VirtualHierarchy h = multilevel::coarsen_virtual(base, opts);
  ASSERT_FALSE(h.empty());

  // Place each coarsest super-guest on a distinct fake node and give each
  // coarse link a distinct one-edge path.
  const auto& top = h.coarsest(base);
  std::vector<NodeId> coarse_gh(top.guest_count());
  for (std::size_t g = 0; g < coarse_gh.size(); ++g) {
    coarse_gh[g] = NodeId{static_cast<NodeId::underlying_type>(100 + g)};
  }
  std::vector<graph::Path> coarse_paths(top.link_count());
  for (std::size_t l = 0; l < coarse_paths.size(); ++l) {
    coarse_paths[l] = {EdgeId{static_cast<EdgeId::underlying_type>(500 + l)}};
  }

  std::vector<NodeId> gh = coarse_gh;
  std::vector<graph::Path> paths = coarse_paths;
  for (auto it = h.levels.rbegin(); it != h.levels.rend(); ++it) {
    gh = multilevel::project_guest_host(*it, gh);
    paths = multilevel::project_link_paths(*it, paths);
  }
  ASSERT_EQ(gh.size(), base.guest_count());
  ASSERT_EQ(paths.size(), base.link_count());

  // Every base guest lands exactly on its composed super-guest's node.
  std::vector<std::size_t> owner(base.guest_count());
  for (std::size_t g = 0; g < owner.size(); ++g) owner[g] = g;
  for (const VirtualLevel& level : h.levels) {
    for (auto& o : owner) o = level.coarse_of_guest[o].index();
  }
  for (std::size_t g = 0; g < base.guest_count(); ++g) {
    EXPECT_EQ(gh[g], coarse_gh[owner[g]]);
  }
  // Co-located links project to the empty path; crossing links inherit
  // their composed coarse link's path verbatim.
  for (std::size_t l = 0; l < base.link_count(); ++l) {
    const auto ep = base.endpoints(lid(l));
    if (owner[ep.src.index()] == owner[ep.dst.index()]) {
      EXPECT_TRUE(paths[l].empty());
    } else {
      ASSERT_EQ(paths[l].size(), 1u);
      EXPECT_GE(paths[l][0].value(), 500u);
    }
  }
}

TEST(VirtualCoarsenTest, SmallVenvIsNotCoarsened) {
  const auto base = make_venv(8, 3);
  VirtualCoarsenOptions opts;
  opts.target_guests = 12;
  const VirtualHierarchy h = multilevel::coarsen_virtual(base, opts);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(&h.coarsest(base), &base);
}

TEST(VirtualCoarsenTest, DeterministicAcrossCalls) {
  const auto base = make_venv(40, 51);
  VirtualCoarsenOptions opts;
  opts.target_guests = 6;
  const VirtualHierarchy a = multilevel::coarsen_virtual(base, opts);
  const VirtualHierarchy b = multilevel::coarsen_virtual(base, opts);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].coarse_of_guest, b.levels[i].coarse_of_guest);
    EXPECT_EQ(a.levels[i].coarse_of_link, b.levels[i].coarse_of_link);
    EXPECT_EQ(a.levels[i].coarse.guest_count(),
              b.levels[i].coarse.guest_count());
    EXPECT_EQ(a.levels[i].coarse.link_count(),
              b.levels[i].coarse.link_count());
  }
}

model::PhysicalCluster make_fabric(std::size_t hosts) {
  auto topo = topology::switch_tree(hosts, 8, 4);
  return model::PhysicalCluster::build(
      std::move(topo),
      std::vector<model::HostCapacity>(hosts, {1000.0, 4096, 4096}),
      model::LinkProps{1000.0, 1.0});
}

TEST(PhysicalCoarsenTest, PyramidShrinksAndConserves) {
  const auto base = make_fabric(512);
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 48;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);
  ASSERT_FALSE(h.contractions.empty());
  EXPECT_TRUE(h.compatible(base));
  EXPECT_EQ(h.level_count(), h.contractions.size() + 1);

  const auto levels = multilevel::materialize_levels(base, h);
  ASSERT_EQ(levels.size(), h.contractions.size());

  double base_mips = 0.0;
  for (const NodeId n : base.hosts()) base_mips += base.capacity(n).proc_mips;

  std::size_t prev_nodes = base.node_count();
  for (const auto& level : levels) {
    // Strictly shrinking, connected, CPU-conserving at every level.
    EXPECT_LT(level.node_count(), prev_nodes);
    prev_nodes = level.node_count();
    EXPECT_TRUE(level.graph().connected());
    double mips = 0.0;
    for (const NodeId n : level.hosts()) mips += level.capacity(n).proc_mips;
    EXPECT_NEAR(mips, base_mips, 1e-9 * (1.0 + base_mips));
  }
  // The coarsest level reached the target (the fabric has enough racks).
  EXPECT_LE(levels.back().node_count(), opts.target_nodes);
}

TEST(PhysicalCoarsenTest, CompatibilityGuardsDifferentFabrics) {
  const auto base = make_fabric(256);
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 32;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);
  EXPECT_TRUE(h.compatible(base));
  const auto other = make_fabric(128);
  EXPECT_FALSE(h.compatible(other));
}

/// A cluster over `topo` whose capacities and links all differ, so that
/// sums and minima of different members give different bits.
model::PhysicalCluster varied_cluster(topology::Topology topo) {
  const std::size_t hosts = topo.host_count();
  const std::size_t edges = topo.graph.edge_count();
  std::vector<model::HostCapacity> caps;
  for (std::size_t i = 0; i < hosts; ++i) {
    const double x = static_cast<double>(i);
    caps.push_back({1000.0 + 0.1 * x, 4096.0 - 0.3 * x, 512.0 + 0.7 * x});
  }
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < edges; ++e) {
    const double x = static_cast<double>(e % 97);
    links.push_back({1000.0 - 0.9 * x, 0.5 + 0.01 * x});
  }
  return model::PhysicalCluster::build(std::move(topo), std::move(caps),
                                       std::move(links));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// materialize_levels over `base` against topology::coarse_cluster applied
/// level by level: the same adjacency, roles and hosts, and the same
/// capacities and link properties bit for bit, over the hierarchy's fabrics.
void expect_levels_match_coarse_clusters(const model::PhysicalCluster& base,
                                         const PhysicalHierarchy& h) {
  const auto levels = multilevel::materialize_levels(base, h);
  ASSERT_EQ(levels.size(), h.contractions.size());
  model::PhysicalCluster fine = base;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const model::PhysicalCluster want =
        topology::coarse_cluster(fine, h.contractions[i]);
    const model::PhysicalCluster& got = levels[i];
    EXPECT_EQ(got.fabric(), h.levels[i].fabric()) << "level " << i + 1;
    ASSERT_EQ(got.node_count(), want.node_count());
    ASSERT_EQ(got.link_count(), want.link_count());
    EXPECT_EQ(got.topology().role, want.topology().role);
    EXPECT_EQ(got.hosts(), want.hosts());
    for (std::size_t n = 0; n < got.node_count(); ++n) {
      const NodeId id{static_cast<NodeId::underlying_type>(n)};
      const auto a = got.graph().neighbors(id);
      const auto b = want.graph().neighbors(id);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].neighbor, b[k].neighbor);
        EXPECT_EQ(a[k].edge, b[k].edge);
      }
      const model::HostCapacity& x = got.capacity(id);
      const model::HostCapacity& y = want.capacity(id);
      EXPECT_TRUE(same_bits(x.proc_mips, y.proc_mips)) << "node " << n;
      EXPECT_TRUE(same_bits(x.mem_mb, y.mem_mb)) << "node " << n;
      EXPECT_TRUE(same_bits(x.stor_gb, y.stor_gb)) << "node " << n;
    }
    for (std::size_t e = 0; e < got.link_count(); ++e) {
      const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
      EXPECT_TRUE(same_bits(got.link(id).bandwidth_mbps,
                            want.link(id).bandwidth_mbps))
          << "edge " << e;
      EXPECT_TRUE(
          same_bits(got.link(id).latency_ms, want.link(id).latency_ms))
          << "edge " << e;
    }
    fine = want;
  }
}

TEST(PhysicalCoarsenTest, MaterializedLevelsMatchCoarseClustersOnATree) {
  const auto base = varied_cluster(topology::switch_tree(512, 8, 4));
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 32;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);
  ASSERT_GE(h.contractions.size(), 2u);
  expect_levels_match_coarse_clusters(base, h);
}

TEST(PhysicalCoarsenTest, MaterializedLevelsMatchCoarseClustersOnATorus) {
  const auto base = varied_cluster(topology::torus_2d(16, 16));
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 24;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);
  ASSERT_GE(h.contractions.size(), 2u);
  expect_levels_match_coarse_clusters(base, h);
}

TEST(PhysicalCoarsenTest, MaterializedLevelsMatchCoarseClustersOnAScarredView) {
  const auto base = varied_cluster(topology::switch_tree(512, 8, 4));
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 32;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);

  // An admission-style view: headroom withheld, CPU biased per host, some
  // bandwidth reserved; then failed hosts (a whole rack among them) and
  // failed links.
  std::vector<model::HostCapacity> caps(base.node_count());
  for (std::size_t i = 0; i < base.host_count(); ++i) {
    const NodeId hst = base.hosts()[i];
    const model::HostCapacity& c = base.capacity(hst);
    const double weight = i % 3 == 0 ? 0.75 : 1.0;
    caps[hst.index()] = {c.proc_mips * weight, c.mem_mb * 0.9 - 17.0,
                         c.stor_gb * 0.9};
  }
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < base.link_count(); ++e) {
    const model::LinkProps& l =
        base.link(EdgeId{static_cast<EdgeId::underlying_type>(e)});
    links.push_back({l.bandwidth_mbps - static_cast<double>(e % 5) * 1.3,
                     l.latency_ms});
  }
  model::PhysicalCluster view =
      model::PhysicalCluster::with_resources(base, caps, links);
  for (std::size_t i = 0; i < 8; ++i) view.fail_node(base.hosts()[i]);
  view.fail_node(base.hosts()[100]);
  view.fail_link(EdgeId{3});
  view.fail_link(EdgeId{400});
  ASSERT_TRUE(h.compatible(view));
  expect_levels_match_coarse_clusters(view, h);
}

TEST(PhysicalCoarsenTest, MaterializeRefusesAnotherStructure) {
  const auto base = make_fabric(256);
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 32;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);
  EXPECT_THROW((void)multilevel::materialize_levels(make_fabric(128), h),
               std::invalid_argument);
}

TEST(PhysicalCoarsenTest, SmallFabricYieldsNoLevels) {
  const auto base = make_fabric(32);
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 96;
  const PhysicalHierarchy h = multilevel::build_hierarchy(base, opts);
  EXPECT_TRUE(h.contractions.empty());
  EXPECT_EQ(h.level_count(), 1u);
}

TEST(PhysicalCoarsenTest, DeterministicAcrossCalls) {
  const auto base = make_fabric(384);
  PhysicalCoarsenOptions opts;
  opts.target_nodes = 48;
  const PhysicalHierarchy a = multilevel::build_hierarchy(base, opts);
  const PhysicalHierarchy b = multilevel::build_hierarchy(base, opts);
  ASSERT_EQ(a.contractions.size(), b.contractions.size());
  for (std::size_t i = 0; i < a.contractions.size(); ++i) {
    EXPECT_EQ(a.contractions[i].group_of_node, b.contractions[i].group_of_node);
    EXPECT_EQ(a.contractions[i].coarse_edge_of,
              b.contractions[i].coarse_edge_of);
  }
}

}  // namespace
