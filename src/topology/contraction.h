// Reusable graph-contraction bookkeeping over a physical cluster.
//
// Two consumers share this machinery instead of carrying parallel
// implementations:
//   * topology::partition_cluster contracts the fabric into rack units
//     before its CPU-balanced shard accretion;
//   * the multilevel mapper (src/multilevel) stacks contractions
//     recursively into a coarsening pyramid and needs the node/edge remap
//     tables to project mappings back down (uncontract).
//
// A Contraction is one level of grouping: every fine node lands in exactly
// one group, every fine edge is either internal to a group or contributes
// to exactly one coarse edge between two groups.  All tables are ordered
// and index-based, so iterating them is deterministic by construction (the
// hmn-lint unordered-iter rule applies to this module).
#pragma once

#include <cstddef>
#include <vector>

#include "model/physical_cluster.h"

namespace hmn::topology {

struct Contraction {
  /// "No group" / "no coarse edge" sentinel.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// fine node -> group index (dense, [0, group_count())).
  std::vector<std::size_t> group_of_node;
  /// group -> fine nodes, ascending.  A partition of the fine node set.
  std::vector<std::vector<NodeId>> members;
  /// group -> aggregate host CPU of its members.
  std::vector<double> group_proc_mips;
  /// group -> number of host-role members.
  std::vector<std::size_t> group_hosts;
  /// group adjacency: sorted, deduplicated group indices.
  std::vector<std::vector<std::size_t>> adjacency;

  /// One coarse edge per adjacent group pair (a < b), ordered by (a, b).
  struct CoarseEdge {
    std::size_t a = 0;
    std::size_t b = 0;
    /// The crossing fine edges this coarse edge aggregates, ascending.
    std::vector<EdgeId> fine_edges;
  };
  std::vector<CoarseEdge> coarse_edges;
  /// fine edge -> coarse edge index, or npos for group-internal edges.
  std::vector<std::size_t> coarse_edge_of;

  [[nodiscard]] std::size_t group_count() const { return members.size(); }
};

/// Builds the full bookkeeping for a given node grouping.  `group_of_node`
/// must assign every fine node a group in [0, group_count).
[[nodiscard]] Contraction make_contraction(
    const model::PhysicalCluster& fine, std::vector<std::size_t> group_of_node,
    std::size_t group_count);

/// Rack-unit contraction (the partitioner's historical rule, kept
/// bit-identical): switches seed groups in ascending node order; each host
/// follows its lowest-id adjacent switch; hosts with no adjacent switch
/// (host-only fabrics) become their own group.
[[nodiscard]] Contraction contract_rack_units(
    const model::PhysicalCluster& fine);

/// Heavy-edge matching contraction: scanning nodes in ascending order, each
/// unmatched node pairs with the unmatched neighbor connected by the
/// largest aggregate bandwidth (lowest id on ties).  Unmatchable nodes keep
/// their own group, so the result is always a valid contraction and always
/// shrinks a graph that has at least one edge between unmatched nodes.
/// Groups are numbered by ascending lowest member id.
[[nodiscard]] Contraction contract_heavy_matching(
    const model::PhysicalCluster& fine);

/// Materializes the coarse cluster of a contraction: group i becomes node
/// i, a host-role node iff the group contains a host, and coarse edge j
/// becomes edge j.  Its resources are those of coarse_resources() over
/// `fine`.
[[nodiscard]] model::PhysicalCluster coarse_cluster(
    const model::PhysicalCluster& fine, const Contraction& c);

/// The resource pass alone: a cluster over `coarse`'s fabric (a
/// coarse_cluster() of `c`) whose capacities and links follow `fine`'s
/// current ones.  A host node sums its member hosts' capacities, in member
/// order.  Each trunk sums the crossing fine links' bandwidth and takes
/// their minimum latency, in fine-edge order (the optimistic bound: a
/// coarse-level route is never penalized more than the best fine-level
/// route underneath it).  O(nodes + edges) of `fine`.
[[nodiscard]] model::PhysicalCluster coarse_resources(
    const model::PhysicalCluster& coarse, const model::PhysicalCluster& fine,
    const Contraction& c);

/// An induced subcluster plus remap tables back to the parent: the shared
/// materialization used by partition_cluster's shards and the multilevel
/// refiner's per-group / per-region subproblems.  Local node and edge ids
/// ascend in parent-id order, so both tables are strictly increasing.
struct SubCluster {
  model::PhysicalCluster cluster;
  std::vector<NodeId> to_parent_node;  // local node id -> parent node id
  std::vector<EdgeId> to_parent_edge;  // local edge id -> parent edge id
};

/// Builds the subcluster induced by `nodes` (parent node ids, ascending,
/// no duplicates).  Capacities and link properties are copied verbatim.
[[nodiscard]] SubCluster induced_subcluster(
    const model::PhysicalCluster& parent, const std::vector<NodeId>& nodes);

}  // namespace hmn::topology
