#include "multilevel/multilevel_mapper.h"

#include <algorithm>
#include <utility>

#include "core/validator.h"
#include "util/timer.h"

namespace hmn::multilevel {
namespace {

GuestId gid(std::size_t i) {
  return GuestId{static_cast<GuestId::underlying_type>(i)};
}

VirtLinkId lid(std::size_t i) {
  return VirtLinkId{static_cast<VirtLinkId::underlying_type>(i)};
}

/// The full-venv mapping at one physical level, in that level's node and
/// edge ids.
struct LevelMapping {
  std::vector<NodeId> guest_host;
  std::vector<graph::Path> link_paths;
};

/// Every node of a level, ascending: the region of a whole-level pass.
std::vector<NodeId> every_node(const model::PhysicalCluster& level) {
  std::vector<NodeId> nodes(level.node_count());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    nodes[n] = NodeId{static_cast<NodeId::underlying_type>(n)};
  }
  return nodes;
}

/// A refinement region of one level as a cluster of its own, with the maps
/// between region-local and level ids.  `nodes` are ascending level ids
/// without duplicates.  A region that covers every node of the level is
/// the level itself — the subcluster induced by every node has the same
/// ids, adjacency order, capacities and link properties — so it borrows
/// the level instead of copying it.
class Region {
 public:
  Region(const model::PhysicalCluster& level, const std::vector<NodeId>& nodes)
      : whole_(nodes.size() == level.node_count()) {
    if (whole_) {
      cluster_ = &level;
      return;
    }
    sub_ = topology::induced_subcluster(level, nodes);
    cluster_ = &sub_.cluster;
    local_of_.assign(level.node_count(), NodeId::invalid());
    for (std::size_t i = 0; i < sub_.to_parent_node.size(); ++i) {
      local_of_[sub_.to_parent_node[i].index()] =
          NodeId{static_cast<NodeId::underlying_type>(i)};
    }
  }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  [[nodiscard]] const model::PhysicalCluster& cluster() const {
    return *cluster_;
  }
  /// The region-local id of a level node; invalid() outside the region.
  [[nodiscard]] NodeId local(NodeId n) const {
    return whole_ ? n : local_of_[n.index()];
  }
  [[nodiscard]] NodeId level_node(NodeId n) const {
    return whole_ ? n : sub_.to_parent_node[n.index()];
  }
  [[nodiscard]] EdgeId level_edge(EdgeId e) const {
    return whole_ ? e : sub_.to_parent_edge[e.index()];
  }

 private:
  bool whole_;
  topology::SubCluster sub_;
  std::vector<NodeId> local_of_;  // level node -> region node
  const model::PhysicalCluster* cluster_ = nullptr;
};

/// Routes every venv link over the region `region_nodes` of `fine`,
/// writing level-local paths into `m.link_paths` on success.
// Refinement's inner re-route: called up to three times per descent level.
// hmn-lint: hot-path
bool route_region(const model::PhysicalCluster& fine,
                  const std::vector<NodeId>& region_nodes,
                  const model::VirtualEnvironment& venv,
                  const std::vector<NodeId>& fine_guest_host,
                  LevelMapping& m) {
  const Region region(fine, region_nodes);
  std::vector<NodeId> local_gh(fine_guest_host.size());
  for (std::size_t g = 0; g < fine_guest_host.size(); ++g) {
    local_gh[g] = region.local(fine_guest_host[g]);
    if (!local_gh[g].valid()) return false;  // guest outside the region
  }
  core::ResidualState state(region.cluster());
  core::NetworkingResult routed = core::run_networking(venv, state, local_gh);
  if (!routed.ok) return false;
  m.link_paths.assign(venv.link_count(), {});
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    graph::Path& path = m.link_paths[l];
    path.reserve(routed.link_paths[l].size());
    for (const EdgeId e : routed.link_paths[l]) {
      path.push_back(region.level_edge(e));
    }
  }
  return true;
}

}  // namespace

GuestId unhostable_guest(const model::PhysicalCluster& level,
                         const std::vector<NodeId>& region,
                         const model::VirtualEnvironment& venv,
                         const std::vector<NodeId>& placed,
                         const std::vector<GuestId>& group) {
  for (const GuestId g : group) {
    const model::GuestRequirements& req = venv.guest(g);
    if (!(req.mem_mb >= 0.0 && req.stor_gb >= 0.0)) return GuestId::invalid();
  }
  // Residuals of the region hosts that hold placed guests, each charged by
  // the subtractions ResidualState::place makes, in ascending guest order;
  // then ordered by node, as the region is.
  struct Charged {
    NodeId host;
    double mem_mb;
    double stor_gb;
  };
  std::vector<Charged> charged;
  for (std::size_t g = 0; g < placed.size(); ++g) {
    const NodeId h = placed[g];
    if (!h.valid() || !std::binary_search(region.begin(), region.end(), h)) {
      continue;
    }
    auto at = std::find_if(charged.begin(), charged.end(),
                           [&](const Charged& c) { return c.host == h; });
    if (at == charged.end()) {
      charged.push_back(
          {h, level.capacity(h).mem_mb, level.capacity(h).stor_gb});
      at = charged.end() - 1;
    }
    const model::GuestRequirements& req = venv.guest(gid(g));
    at->mem_mb -= req.mem_mb;
    at->stor_gb -= req.stor_gb;
  }
  std::sort(charged.begin(), charged.end(),
            [](const Charged& a, const Charged& b) { return a.host < b.host; });

  for (const GuestId g : group) {
    const model::GuestRequirements& req = venv.guest(g);
    auto next = charged.begin();
    bool fits = false;
    for (const NodeId h : region) {
      if (!level.is_host(h)) continue;
      double mem = level.capacity(h).mem_mb;
      double stor = level.capacity(h).stor_gb;
      while (next != charged.end() && next->host < h) ++next;
      if (next != charged.end() && next->host == h) {
        mem = next->mem_mb;
        stor = next->stor_gb;
      }
      if (mem >= req.mem_mb && stor >= req.stor_gb) {
        fits = true;
        break;
      }
    }
    if (!fits) return g;
  }
  return GuestId::invalid();
}

MultilevelMapper::MultilevelMapper(MultilevelOptions opts)
    : MultilevelMapper(std::move(opts), nullptr) {}

MultilevelMapper::MultilevelMapper(
    MultilevelOptions opts, std::shared_ptr<const PhysicalHierarchy> hierarchy)
    : opts_(std::move(opts)), hierarchy_(std::move(hierarchy)) {}

std::string MultilevelMapper::name() const { return "ML"; }

core::MapOutcome MultilevelMapper::map(const model::PhysicalCluster& cluster,
                                       const model::VirtualEnvironment& venv,
                                       std::uint64_t seed) const {
  if (cluster.host_count() == 0) {
    return core::MapOutcome::failure(core::MapErrorCode::kInvalidInput,
                                     "cluster has no hosts");
  }
  if (cluster.host_count() < opts_.min_hosts) {
    return flat_.map(cluster, venv, seed);
  }
  const util::Timer total;
  auto notify = [&](const char* stage, std::size_t level, std::size_t nodes,
                    std::size_t guests) {
    if (opts_.observer) opts_.observer({stage, level, nodes, guests});
  };
  auto fallback = [&](const char* stage_level) {
    if (opts_.observer) {
      opts_.observer({std::string("fallback: ") + stage_level, 0,
                      cluster.graph().node_count(), venv.guest_count()});
    }
    core::MapOutcome o = flat_.map(cluster, venv, seed);
    o.stats.levels_used = 0;
    if (!o.ok()) {
      o.detail += " (after multilevel ";
      o.detail += stage_level;
      o.detail += " fallback)";
    }
    return o;
  };

  // Structural pyramid: reuse the shared one when it matches this cluster.
  PhysicalHierarchy local;
  const bool shared = hierarchy_ != nullptr && hierarchy_->compatible(cluster);
  if (!shared) local = build_hierarchy(cluster, opts_.phys);
  const PhysicalHierarchy* hier = shared ? hierarchy_.get() : &local;
  if (hier->contractions.empty()) return flat_.map(cluster, venv, seed);
  // A local build's levels already carry this cluster's resources.
  const std::vector<model::PhysicalCluster> levels =
      shared ? materialize_levels(cluster, *hier) : std::move(local.levels);
  notify("hierarchy", hier->contractions.size(),
         levels.back().graph().node_count(), venv.guest_count());

  const VirtualHierarchy vh = coarsen_virtual(venv, opts_.virt);
  const model::VirtualEnvironment& top_venv = vh.coarsest(venv);
  notify("coarsen-virtual", hier->contractions.size(),
         levels.back().graph().node_count(), top_venv.guest_count());

  core::MapOutcome outcome;
  outcome.stats.levels_used = hier->level_count();

  // ---- Coarse solve: the HMN stages on the smallest level. ----
  const model::PhysicalCluster& top = levels.back();
  util::Timer stage;
  core::ResidualState top_state(top);
  core::HostingResult hosted = core::run_hosting(top_venv, top_state);
  outcome.stats.hosting_seconds += stage.elapsed_seconds();
  if (!hosted.ok) return fallback("coarse hosting");
  stage.restart();
  outcome.stats.migrations +=
      core::run_migration(top_venv, top_state, hosted.guest_host).migrations;
  outcome.stats.migration_seconds += stage.elapsed_seconds();
  stage.restart();
  core::NetworkingResult routed =
      core::run_networking(top_venv, top_state, hosted.guest_host);
  outcome.stats.networking_seconds += stage.elapsed_seconds();
  if (!routed.ok) return fallback("coarse networking");
  notify("coarse-solve", hier->contractions.size(),
         top.graph().node_count(), top_venv.guest_count());

  // ---- Exact virtual uncoarsening (still on the coarsest cluster). ----
  LevelMapping m;
  m.guest_host = std::move(hosted.guest_host);
  m.link_paths = std::move(routed.link_paths);
  for (auto it = vh.levels.rbegin(); it != vh.levels.rend(); ++it) {
    m.guest_host = project_guest_host(*it, m.guest_host);
    m.link_paths = project_link_paths(*it, m.link_paths);
  }
  if (!core::validate_mapping(top, venv, {m.guest_host, m.link_paths}).ok()) {
    return fallback("coarsest-level validation");
  }

  // ---- Physical descent: project one level at a time and refine. ----
  for (std::size_t k = hier->contractions.size(); k >= 1; --k) {
    const model::PhysicalCluster& fine = k == 1 ? cluster : levels[k - 2];
    const model::PhysicalCluster& coarse = levels[k - 1];
    const topology::Contraction& c = hier->contractions[k - 1];

    // Guests per occupied coarse node (coarse node id == group id).
    std::vector<std::vector<GuestId>> by_group(c.group_count());
    for (std::size_t g = 0; g < m.guest_host.size(); ++g) {
      by_group[m.guest_host[g].index()].push_back(gid(g));
    }
    // Region of interest at this level: the groups that hold guests plus
    // every group a coarse path runs through (the refinement frontier).
    std::vector<char> in_region(c.group_count(), 0);
    for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
      if (!by_group[grp].empty()) in_region[grp] = 1;
    }
    for (std::size_t l = 0; l < venv.link_count(); ++l) {
      if (m.link_paths[l].empty()) continue;
      const NodeId origin = m.guest_host[venv.endpoints(lid(l)).src.index()];
      for (const NodeId n :
           graph::path_nodes(coarse.graph(), origin, m.link_paths[l])) {
        in_region[n.index()] = 1;
      }
    }

    // Expand each occupied super-node: Hosting + Migration restricted to
    // the group's member subcluster.  The coarse solve admitted the group
    // on *aggregate* capacity, but Eqs. 2-3 are per-host, so the group's
    // individual hosts may not carry the bin-packing; in that case widen
    // the region by BFS over the group adjacency (radius 1 may add only a
    // bare switch group; radius 2 reaches the sibling racks behind it),
    // staying local.  Guests no radius can place are collected and hosted
    // together in one whole-level pass at the end.  Guests an earlier
    // retry already placed inside a region are charged into the residual
    // state, so capacity is never double-booked across groups.
    std::vector<NodeId> fine_gh(venv.guest_count(), NodeId::invalid());

    // Hosts `guests` (with their induced internal links) on the subcluster
    // of `region`, charging prior placements; writes fine_gh on success.
    // A guest that fits on no region host once those placements are
    // charged would fail Hosting, so such a try builds nothing.
    auto try_host = [&](const std::vector<GuestId>& guests,
                        const std::vector<NodeId>& region) {
      stage.restart();
      const bool hostable =
          !unhostable_guest(fine, region, venv, fine_gh, guests).valid();
      outcome.stats.hosting_seconds += stage.elapsed_seconds();
      if (!hostable) return false;
      model::VirtualEnvironment sub_venv;
      std::vector<std::size_t> local_guest(venv.guest_count(), 0);
      std::vector<char> in_set(venv.guest_count(), 0);
      for (std::size_t i = 0; i < guests.size(); ++i) {
        local_guest[guests[i].index()] = i;
        in_set[guests[i].index()] = 1;
        (void)sub_venv.add_guest(venv.guest(guests[i]));
      }
      for (std::size_t l = 0; l < venv.link_count(); ++l) {
        const auto ep = venv.endpoints(lid(l));
        if (!in_set[ep.src.index()] || !in_set[ep.dst.index()]) continue;
        (void)sub_venv.add_link(gid(local_guest[ep.src.index()]),
                                gid(local_guest[ep.dst.index()]),
                                venv.link(lid(l)));
      }
      const Region sub(fine, region);
      stage.restart();
      core::ResidualState st(sub.cluster());
      for (std::size_t g = 0; g < fine_gh.size(); ++g) {
        if (!fine_gh[g].valid()) continue;
        const NodeId at = sub.local(fine_gh[g]);
        if (at.valid()) st.place(venv.guest(gid(g)), at);
      }
      core::HostingResult sub_hosted = core::run_hosting(sub_venv, st);
      outcome.stats.hosting_seconds += stage.elapsed_seconds();
      if (!sub_hosted.ok) return false;
      stage.restart();
      outcome.stats.migrations +=
          core::run_migration(sub_venv, st, sub_hosted.guest_host).migrations;
      outcome.stats.migration_seconds += stage.elapsed_seconds();
      for (std::size_t i = 0; i < guests.size(); ++i) {
        fine_gh[guests[i].index()] =
            sub.level_node(sub_hosted.guest_host[i]);
      }
      return true;
    };

    constexpr std::size_t kMaxRadius = 3;
    std::vector<GuestId> spilled;
    for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
      if (by_group[grp].empty()) continue;
      std::vector<char> in_set(c.group_count(), 0);
      std::vector<std::size_t> frontier = {grp};
      in_set[grp] = 1;
      std::vector<NodeId> region = c.members[grp];
      bool placed = false;
      for (std::size_t radius = 0; radius <= kMaxRadius; ++radius) {
        if (radius > 0) {
          std::vector<std::size_t> next;
          bool adds_hosts = false;
          for (const std::size_t g : frontier) {
            for (const std::size_t nb : c.adjacency[g]) {
              if (in_set[nb]) continue;
              in_set[nb] = 1;
              next.push_back(nb);
              for (const NodeId n : c.members[nb]) {
                region.push_back(n);
                adds_hosts = adds_hosts || fine.is_host(n);
              }
            }
          }
          if (next.empty()) break;  // whole component already covered
          std::sort(next.begin(), next.end());
          std::sort(region.begin(), region.end());
          frontier = std::move(next);
          // Host-less groups leave try_host the same guests, hosts and
          // charged placements as the radius that just failed.
          if (!adds_hosts) continue;
        }
        if (try_host(by_group[grp], region)) {
          for (std::size_t g = 0; g < c.group_count(); ++g) {
            if (in_set[g]) in_region[g] = 1;
          }
          placed = true;
          break;
        }
      }
      if (!placed) {
        spilled.insert(spilled.end(), by_group[grp].begin(),
                       by_group[grp].end());
      }
    }
    if (!spilled.empty()) {
      if (!try_host(spilled, every_node(fine))) {
        return fallback("level hosting");
      }
      std::fill(in_region.begin(), in_region.end(), 1);
    }

    // Re-route over the region; widen by one ring of adjacent groups, then
    // to the whole level, before giving up.  A widening that adds no node
    // would repeat the failed route, so it is skipped.
    auto region_nodes = [&]() {
      std::vector<NodeId> nodes;
      for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
        if (!in_region[grp]) continue;
        nodes.insert(nodes.end(), c.members[grp].begin(),
                     c.members[grp].end());
      }
      std::sort(nodes.begin(), nodes.end());
      return nodes;
    };
    stage.restart();
    std::vector<NodeId> nodes = region_nodes();
    bool routed_ok = route_region(fine, nodes, venv, fine_gh, m);
    if (!routed_ok) {
      std::vector<char> widened = in_region;
      for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
        if (!in_region[grp]) continue;
        for (const std::size_t nb : c.adjacency[grp]) widened[nb] = 1;
      }
      in_region = std::move(widened);
      const std::size_t tried = nodes.size();
      nodes = region_nodes();
      if (nodes.size() > tried) {
        routed_ok = route_region(fine, nodes, venv, fine_gh, m);
      }
    }
    if (!routed_ok && nodes.size() < fine.node_count()) {
      routed_ok = route_region(fine, every_node(fine), venv, fine_gh, m);
    }
    outcome.stats.networking_seconds += stage.elapsed_seconds();
    if (!routed_ok) return fallback("level networking");
    m.guest_host = std::move(fine_gh);

    if (!core::validate_mapping(fine, venv, {m.guest_host, m.link_paths})
             .ok()) {
      return fallback("level validation");
    }
    notify("refine", k - 1, fine.graph().node_count(), venv.guest_count());
  }

  std::size_t links_routed = 0;
  for (const graph::Path& p : m.link_paths) {
    if (!p.empty()) ++links_routed;
  }
  outcome.stats.links_routed = links_routed;
  core::Mapping mapping;
  mapping.guest_host = std::move(m.guest_host);
  mapping.link_paths = std::move(m.link_paths);
  outcome.mapping = std::move(mapping);
  outcome.stats.total_seconds = total.elapsed_seconds();
  return outcome;
}

}  // namespace hmn::multilevel
