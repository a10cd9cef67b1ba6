// The multilevel refiner runs the HMN stages on regions of a level without
// copying them: a residual state restricted to the region's hosts
// (core::ResidualState::restrict_hosts) and a link router whose edges with
// an endpoint outside the region are absent (core::LinkRouter::
// restrict_to).  These tests hold both views to what the stages return on
// the subcluster the region induces (topology::induced_subcluster), bit
// for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/hosting.h"
#include "core/migration.h"
#include "core/networking.h"
#include "core/residual.h"
#include "emulator/tenancy.h"
#include "topology/contraction.h"
#include "topology/topologies.h"
#include "util/rng.h"

namespace {

using namespace hmn;

NodeId nid(std::size_t i) {
  return NodeId{static_cast<NodeId::underlying_type>(i)};
}
GuestId gid(std::size_t i) {
  return GuestId{static_cast<GuestId::underlying_type>(i)};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A loaded level: a switch tree or a torus whose hosts and links other
/// tenants have partly used, and on odd kinds a scarred view of it with a
/// failed host and a failed link.  Most hosts share one CPU capacity, so
/// Hosting meets NodeId tie-breaks.
model::PhysicalCluster make_level(std::size_t kind, util::Rng& rng) {
  topology::Topology topo =
      kind / 2 == 0
          ? topology::switch_tree(6 + rng.index(40), 2 + rng.index(6),
                                  2 + rng.index(3))
          : topology::torus_2d(3 + rng.index(5), 3 + rng.index(5));
  const std::size_t hosts = topo.host_count();
  const std::size_t edges = topo.graph.edge_count();
  std::vector<model::HostCapacity> caps;
  for (std::size_t h = 0; h < hosts; ++h) {
    caps.push_back({rng.index(4) == 0 ? 1500.0 : 1000.0,
                    4096.0 * rng.uniform(0.1, 1.0),
                    400.0 * rng.uniform(0.3, 1.0)});
  }
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < edges; ++e) {
    links.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.5, 8.0)});
  }
  model::PhysicalCluster level = model::PhysicalCluster::build(
      std::move(topo), std::move(caps), std::move(links));
  if (kind % 2 == 0) return level;
  emulator::TenancyManager mgr(level);
  mgr.set_node_down(level.hosts()[rng.index(level.host_count())], true);
  mgr.set_link_down(EdgeId{static_cast<EdgeId::underlying_type>(
                        rng.index(level.link_count()))},
                    true);
  return mgr.residual_cluster();
}

/// A region of `level`, ascending: the whole level, or a BFS ball around a
/// random node with a few holes punched into it.
std::vector<NodeId> make_region(const model::PhysicalCluster& level,
                                util::Rng& rng) {
  const std::size_t n = level.node_count();
  std::vector<NodeId> region;
  if (rng.index(5) == 0) {
    for (std::size_t i = 0; i < n; ++i) region.push_back(nid(i));
    return region;
  }
  const std::size_t want = 2 + rng.index(n - 1);
  std::vector<char> seen(n, 0);
  std::deque<NodeId> queue = {nid(rng.index(n))};
  seen[queue.front().index()] = 1;
  while (!queue.empty() && region.size() < want) {
    const NodeId at = queue.front();
    queue.pop_front();
    if (rng.index(10) != 0 || region.empty()) region.push_back(at);
    for (const graph::Adjacency& adj : level.graph().neighbors(at)) {
      if (seen[adj.neighbor.index()] == 0) {
        seen[adj.neighbor.index()] = 1;
        queue.push_back(adj.neighbor);
      }
    }
  }
  std::sort(region.begin(), region.end());
  return region;
}

/// Guests with links among them; a quarter of the links ask for 0 Mbps and
/// a quarter have no latency bound.
model::VirtualEnvironment make_venv(util::Rng& rng) {
  model::VirtualEnvironment venv;
  const std::size_t guests = 2 + rng.index(9);
  for (std::size_t i = 0; i < guests; ++i) {
    (void)venv.add_guest({static_cast<double>(rng.index(600)),
                          rng.uniform(128.0, 2048.0),
                          rng.uniform(10.0, 150.0)});
  }
  auto demand = [&] {
    return model::VirtualLinkDemand{
        rng.index(4) == 0 ? 0.0 : rng.uniform(1.0, 120.0),
        rng.index(4) == 0 ? kInf : rng.uniform(4.0, 40.0)};
  };
  for (std::size_t i = 1; i < guests; ++i) {
    if (rng.index(3) != 0) {
      (void)venv.add_link(gid(rng.index(i)), gid(i), demand());
    }
  }
  for (std::size_t extra = rng.index(3); extra > 0; --extra) {
    const std::size_t a = rng.index(guests);
    const std::size_t b = rng.index(guests);
    if (a != b) (void)venv.add_link(gid(a), gid(b), demand());
  }
  return venv;
}

/// Expects the level state `view` to hold, on every node and edge of the
/// region `sub` induces, the doubles the copy's state `copy` holds.
void expect_same_residuals(const core::ResidualState& view,
                           const core::ResidualState& copy,
                           const topology::SubCluster& sub, int trial) {
  for (std::size_t i = 0; i < sub.to_parent_node.size(); ++i) {
    const NodeId p = sub.to_parent_node[i];
    EXPECT_TRUE(same_bits(view.residual_proc(p), copy.residual_proc(nid(i))))
        << "trial " << trial << " node " << p.value();
    EXPECT_TRUE(same_bits(view.residual_mem(p), copy.residual_mem(nid(i))))
        << "trial " << trial << " node " << p.value();
    EXPECT_TRUE(same_bits(view.residual_stor(p), copy.residual_stor(nid(i))))
        << "trial " << trial << " node " << p.value();
  }
  for (std::size_t e = 0; e < sub.to_parent_edge.size(); ++e) {
    const EdgeId local{static_cast<EdgeId::underlying_type>(e)};
    EXPECT_TRUE(same_bits(view.residual_bw(sub.to_parent_edge[e]),
                          copy.residual_bw(local)))
        << "trial " << trial << " edge " << sub.to_parent_edge[e].value();
  }
}

graph::Path to_parent(const topology::SubCluster& sub, const graph::Path& p) {
  graph::Path out;
  for (const EdgeId e : p) out.push_back(sub.to_parent_edge[e.index()]);
  return out;
}

TEST(MultilevelRegion, ViewMatchesInducedCopy) {
  util::Rng rng(4242);
  std::size_t hosted = 0;
  std::size_t unhosted = 0;
  std::size_t moved = 0;
  std::size_t routed = 0;
  std::size_t unrouted = 0;
  std::size_t cut_paths = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t kind = static_cast<std::size_t>(trial) % 4;
    const model::PhysicalCluster level = make_level(kind, rng);
    const std::vector<NodeId> region = make_region(level, rng);
    std::vector<NodeId> hosts;
    std::vector<char> mask(level.node_count(), 0);
    for (const NodeId n : region) {
      mask[n.index()] = 1;
      if (level.is_host(n)) hosts.push_back(n);
    }
    if (hosts.empty()) continue;
    const topology::SubCluster sub =
        topology::induced_subcluster(level, region);
    std::vector<NodeId> local(level.node_count(), NodeId::invalid());
    for (std::size_t i = 0; i < region.size(); ++i) {
      local[region[i].index()] = nid(i);
    }
    const model::VirtualEnvironment venv = make_venv(rng);

    // Guests of earlier groups, anywhere on the level: the view charges
    // those inside the region, in ascending order, as the copy does.
    model::VirtualEnvironment earlier;
    std::vector<NodeId> earlier_host;
    for (std::size_t i = rng.index(6); i > 0; --i) {
      (void)earlier.add_guest({static_cast<double>(rng.index(600)),
                               rng.uniform(64.0, 1024.0),
                               rng.uniform(5.0, 60.0)});
      earlier_host.push_back(level.hosts()[rng.index(level.host_count())]);
    }

    // ---- Hosting + Migration.  The view's state is dirty everywhere, as
    // the refiner's is after earlier tries: restore_hosts resets the
    // region's hosts.
    core::ResidualState view(level);
    for (std::size_t i = 0; i < 8; ++i) {
      view.place(venv.guest(gid(rng.index(venv.guest_count()))),
                 level.hosts()[rng.index(level.host_count())]);
    }
    view.restore_hosts(hosts);
    view.restrict_hosts(hosts);
    core::ResidualState copy(sub.cluster);
    for (std::size_t g = 0; g < earlier_host.size(); ++g) {
      const NodeId h = earlier_host[g];
      if (mask[h.index()] == 0) continue;
      view.place(earlier.guest(gid(g)), h);
      copy.place(earlier.guest(gid(g)), local[h.index()]);
    }
    ASSERT_EQ(view.hosts().size(), copy.hosts().size());
    core::HostingResult view_hosted = core::run_hosting(venv, view);
    core::HostingResult copy_hosted = core::run_hosting(venv, copy);
    ASSERT_EQ(view_hosted.ok, copy_hosted.ok) << "trial " << trial;
    EXPECT_EQ(view_hosted.detail, copy_hosted.detail) << "trial " << trial;
    std::vector<NodeId> gh = view_hosted.guest_host;
    if (view_hosted.ok) {
      ++hosted;
      const core::MigrationResult view_moves =
          core::run_migration(venv, view, view_hosted.guest_host);
      const core::MigrationResult copy_moves =
          core::run_migration(venv, copy, copy_hosted.guest_host);
      EXPECT_EQ(view_moves.migrations, copy_moves.migrations)
          << "trial " << trial;
      EXPECT_TRUE(same_bits(view_moves.initial_lbf, copy_moves.initial_lbf))
          << "trial " << trial;
      EXPECT_TRUE(same_bits(view_moves.final_lbf, copy_moves.final_lbf))
          << "trial " << trial;
      if (view_moves.migrations > 0) ++moved;
      for (std::size_t g = 0; g < venv.guest_count(); ++g) {
        EXPECT_EQ(view_hosted.guest_host[g],
                  sub.to_parent_node[copy_hosted.guest_host[g].index()])
            << "trial " << trial << " guest " << g;
      }
      gh = view_hosted.guest_host;
    } else {
      ++unhosted;
      // Route anyway, from guests spread over the region's hosts.
      for (NodeId& h : gh) h = hosts[rng.index(hosts.size())];
    }
    expect_same_residuals(view, copy, sub, trial);

    // ---- Networking over a fresh level state, as the refiner's re-route
    // starts from the level's link capacities.
    core::ResidualState level_state(level);
    core::LinkRouter router(level_state);
    router.restrict_to(&mask);
    core::ResidualState copy_state(sub.cluster);
    std::vector<NodeId> copy_gh;
    for (const NodeId h : gh) copy_gh.push_back(local[h.index()]);
    const core::NetworkingResult view_routed =
        core::run_networking(venv, level_state, gh, {}, &router);
    const core::NetworkingResult copy_routed =
        core::run_networking(venv, copy_state, copy_gh);
    ASSERT_EQ(view_routed.ok, copy_routed.ok) << "trial " << trial;
    EXPECT_EQ(view_routed.detail, copy_routed.detail) << "trial " << trial;
    ++(view_routed.ok ? routed : unrouted);
    for (std::size_t l = 0; l < venv.link_count(); ++l) {
      EXPECT_EQ(view_routed.link_paths[l],
                to_parent(sub, copy_routed.link_paths[l]))
          << "trial " << trial << " link " << l;
    }
    expect_same_residuals(level_state, copy_state, sub, trial);

    // Single routes between region hosts, on what the stage left: the
    // same path or the same failure.  A pair the region cuts apart gives
    // nullopt on both, even for 0 Mbps and no latency bound.
    core::LinkRouter copy_router(copy_state);
    for (int pair = 0; pair < 12; ++pair) {
      const NodeId a = hosts[rng.index(hosts.size())];
      const NodeId b = hosts[rng.index(hosts.size())];
      if (a == b) continue;
      const model::VirtualLinkDemand demand{
          rng.index(3) == 0 ? 0.0 : rng.uniform(1.0, 150.0),
          rng.index(3) == 0 ? kInf : rng.uniform(4.0, 40.0)};
      const auto view_path = router.route(a, b, demand);
      const auto copy_path =
          copy_router.route(local[a.index()], local[b.index()], demand);
      ASSERT_EQ(view_path.has_value(), copy_path.has_value())
          << "trial " << trial << " pair " << pair;
      if (!view_path.has_value()) {
        ++cut_paths;
        continue;
      }
      EXPECT_EQ(view_path->edges, to_parent(sub, copy_path->edges))
          << "trial " << trial << " pair " << pair;
      EXPECT_TRUE(same_bits(view_path->bottleneck_bw, copy_path->bottleneck_bw))
          << "trial " << trial << " pair " << pair;
      EXPECT_TRUE(same_bits(view_path->total_latency, copy_path->total_latency))
          << "trial " << trial << " pair " << pair;
    }

    // Lifting the restriction after restoring the reserved links routes as
    // a router over the whole level does.
    for (const graph::Path& p : view_routed.link_paths) {
      level_state.restore_links(p);
    }
    router.restrict_to(nullptr);
    const core::NetworkingResult whole =
        core::run_networking(venv, level_state, gh, {}, &router);
    core::ResidualState fresh(level);
    const core::NetworkingResult expected =
        core::run_networking(venv, fresh, gh);
    ASSERT_EQ(whole.ok, expected.ok) << "trial " << trial;
    EXPECT_EQ(whole.link_paths, expected.link_paths) << "trial " << trial;
  }
  // Every branch the comparison covers was taken.
  EXPECT_GT(hosted, 50u);
  EXPECT_GT(unhosted, 10u);
  EXPECT_GT(moved, 5u);
  EXPECT_GT(routed, 50u);
  EXPECT_GT(unrouted, 10u);
  EXPECT_GT(cut_paths, 50u);
}

}  // namespace
