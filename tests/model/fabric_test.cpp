// Tests for the fabric/resources split of model::PhysicalCluster: copies and
// views share one immutable fabric (graph, hosts, forest) while each keeps
// its own capacities and links.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/forest.h"
#include "model/physical_cluster.h"
#include "topology/topologies.h"

namespace {

using namespace hmn;
using model::HostCapacity;
using model::LinkProps;
using model::PhysicalCluster;

PhysicalCluster tree_cluster() {
  auto topo = topology::switch_tree(24, 4, 3);
  const std::size_t hosts = topo.host_count();
  std::vector<HostCapacity> caps;
  for (std::size_t i = 0; i < hosts; ++i) {
    caps.push_back({1000.0 + static_cast<double>(i), 2048.0, 512.0});
  }
  return PhysicalCluster::build(std::move(topo), std::move(caps),
                                LinkProps{1000.0, 0.5});
}

PhysicalCluster torus_cluster() {
  return PhysicalCluster::build(
      topology::torus_2d(4, 4), std::vector<HostCapacity>(16, {1000, 1024, 64}),
      LinkProps{100.0, 1.0});
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_resources_equal(const PhysicalCluster& a,
                            const PhysicalCluster& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (std::size_t n = 0; n < a.node_count(); ++n) {
    const NodeId id{static_cast<NodeId::underlying_type>(n)};
    EXPECT_TRUE(
        same_bits(a.capacity(id).proc_mips, b.capacity(id).proc_mips));
    EXPECT_TRUE(same_bits(a.capacity(id).mem_mb, b.capacity(id).mem_mb));
    EXPECT_TRUE(same_bits(a.capacity(id).stor_gb, b.capacity(id).stor_gb));
  }
  for (std::size_t e = 0; e < a.link_count(); ++e) {
    const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
    EXPECT_TRUE(
        same_bits(a.link(id).bandwidth_mbps, b.link(id).bandwidth_mbps));
    EXPECT_TRUE(same_bits(a.link(id).latency_ms, b.link(id).latency_ms));
  }
}

TEST(Fabric, CopiesAndViewsShareTheGraphAndHosts) {
  const PhysicalCluster base = tree_cluster();
  const PhysicalCluster copy = base;
  std::vector<HostCapacity> caps(base.node_count());
  for (const NodeId h : base.hosts()) caps[h.index()] = {1.0, 2.0, 3.0};
  const PhysicalCluster view = PhysicalCluster::with_resources(
      base, caps, std::vector<LinkProps>(base.link_count(), {5.0, 6.0}));

  EXPECT_EQ(copy.fabric(), base.fabric());
  EXPECT_EQ(view.fabric(), base.fabric());
  EXPECT_EQ(&copy.graph(), &base.graph());
  EXPECT_EQ(&view.graph(), &base.graph());
  EXPECT_EQ(&copy.hosts(), &base.hosts());
  EXPECT_EQ(&view.hosts(), &base.hosts());
  // The view carries its own resources, and no failure domains.
  EXPECT_EQ(view.capacity(base.hosts()[0]).mem_mb, 2.0);
  EXPECT_EQ(view.link(EdgeId{0}).latency_ms, 6.0);
  EXPECT_TRUE(view.failure_domains().empty());
  EXPECT_EQ(base.capacity(base.hosts()[0]).mem_mb, 2048.0);
}

TEST(Fabric, FailuresOnACopyLeaveTheOriginal) {
  const PhysicalCluster base = tree_cluster();
  const PhysicalCluster before = tree_cluster();
  PhysicalCluster scarred = base;
  scarred.fail_node(base.hosts()[3]);
  scarred.fail_link(EdgeId{0});
  scarred.deduct_vmm_overhead({10.0, 10.0, 10.0});

  EXPECT_EQ(scarred.fabric(), base.fabric());
  EXPECT_EQ(scarred.capacity(base.hosts()[3]).mem_mb, 0.0);
  EXPECT_EQ(scarred.link(EdgeId{0}).bandwidth_mbps, 0.0);
  expect_resources_equal(base, before);
}

TEST(Fabric, WithResourcesChecksSizes) {
  const PhysicalCluster base = tree_cluster();
  const std::vector<LinkProps> links(base.link_count());
  EXPECT_THROW((void)PhysicalCluster::with_resources(
                   base, std::vector<HostCapacity>(base.host_count()), links),
               std::invalid_argument);
  EXPECT_THROW((void)PhysicalCluster::with_resources(
                   base, std::vector<HostCapacity>(base.node_count()),
                   std::vector<LinkProps>(base.link_count() + 1)),
               std::invalid_argument);
}

TEST(Fabric, DefaultClusterIsEmpty) {
  const PhysicalCluster a;
  const PhysicalCluster b;
  EXPECT_EQ(a.node_count(), 0u);
  EXPECT_EQ(a.link_count(), 0u);
  EXPECT_EQ(a.host_count(), 0u);
  EXPECT_EQ(a.fabric(), b.fabric());
  EXPECT_NE(a.forest(), nullptr);  // no edge, no cycle
}

TEST(Fabric, OneForestPerFabricAndNoneOnATorus) {
  const PhysicalCluster base = tree_cluster();
  const graph::Forest* forest = base.forest();
  ASSERT_NE(forest, nullptr);
  PhysicalCluster copy = base;
  copy.fail_node(base.hosts()[0]);
  EXPECT_EQ(copy.forest(), forest);
  EXPECT_EQ(PhysicalCluster::with_resources(
                base, std::vector<HostCapacity>(base.node_count()),
                std::vector<LinkProps>(base.link_count()))
                .forest(),
            forest);

  // The shared forest walks the same paths as one built on its own.
  graph::Forest fresh;
  ASSERT_TRUE(fresh.build(base.graph()));
  graph::Path a;
  graph::Path b;
  for (const NodeId s : base.hosts()) {
    ASSERT_TRUE(forest->path(s, base.hosts().back(), a));
    ASSERT_TRUE(fresh.path(s, base.hosts().back(), b));
    EXPECT_EQ(a, b);
  }

  // Another fabric of the same shape has a forest of its own.
  EXPECT_NE(tree_cluster().forest(), forest);
  EXPECT_EQ(torus_cluster().forest(), nullptr);
}

TEST(Fabric, ConcurrentForestCallsBuildOnce) {
  const PhysicalCluster base = tree_cluster();
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<const graph::Forest*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] = base.forest();
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_NE(seen[0], nullptr);
  for (const graph::Forest* f : seen) EXPECT_EQ(f, seen[0]);
  graph::Path path;
  EXPECT_TRUE(seen[0]->path(base.hosts()[0], base.hosts()[1], path));
}

TEST(Fabric, SameStructureComparesRolesAndEdgeOrder) {
  const PhysicalCluster a = tree_cluster();
  const PhysicalCluster b = tree_cluster();
  EXPECT_NE(a.fabric(), b.fabric());
  EXPECT_TRUE(a.fabric()->same_structure(*b.fabric()));

  // The same tree with its node ids reversed has equal counts only.
  const topology::Topology& topo = a.topology();
  const std::size_t n = topo.graph.node_count();
  topology::Topology reversed;
  reversed.graph = graph::Graph(n);
  auto flip = [n](NodeId v) {
    return NodeId{static_cast<NodeId::underlying_type>(n - 1 - v.index())};
  };
  for (std::size_t i = 0; i < n; ++i) {
    reversed.role.push_back(topo.role[n - 1 - i]);
  }
  for (std::size_t e = 0; e < topo.graph.edge_count(); ++e) {
    const auto ep =
        topo.graph.endpoints(EdgeId{static_cast<EdgeId::underlying_type>(e)});
    reversed.graph.add_edge(flip(ep.a), flip(ep.b));
  }
  const PhysicalCluster r = PhysicalCluster::build(
      std::move(reversed), std::vector<HostCapacity>(a.host_count()),
      LinkProps{});
  EXPECT_EQ(r.node_count(), a.node_count());
  EXPECT_EQ(r.link_count(), a.link_count());
  EXPECT_EQ(r.host_count(), a.host_count());
  EXPECT_FALSE(a.fabric()->same_structure(*r.fabric()));
  EXPECT_FALSE(a.fabric()->same_structure(*torus_cluster().fabric()));
}

}  // namespace
