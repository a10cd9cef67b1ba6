#include "multilevel/multilevel_mapper.h"

#include <algorithm>
#include <optional>
#include <span>
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

/// Merges the hosts among `nodes` (ascending) into `hosts` (ascending, none
/// of `nodes`), keeping it ascending.  `merged` is scratch space.
void merge_hosts(const model::PhysicalCluster& level,
                 std::span<const NodeId> nodes, std::vector<NodeId>& hosts,
                 std::vector<NodeId>& merged) {
  merged.clear();
  auto old = hosts.begin();
  for (const NodeId n : nodes) {
    if (!level.is_host(n)) continue;
    for (; old != hosts.end() && *old < n; ++old) merged.push_back(*old);
    merged.push_back(n);
  }
  merged.insert(merged.end(), old, hosts.end());
  hosts.swap(merged);
}

/// The environment of `guests` alone: their requirements in `guests` order
/// and the links of `venv` between two of them, in link order.
model::VirtualEnvironment sub_venv(const model::VirtualEnvironment& venv,
                                   std::span<const GuestId> guests) {
  model::VirtualEnvironment sub;
  std::vector<std::size_t> local(venv.guest_count(), guests.size());
  for (std::size_t i = 0; i < guests.size(); ++i) {
    local[guests[i].index()] = i;
    (void)sub.add_guest(venv.guest(guests[i]));
  }
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    const auto ep = venv.endpoints(lid(l));
    const std::size_t src = local[ep.src.index()];
    const std::size_t dst = local[ep.dst.index()];
    if (src == guests.size() || dst == guests.size()) continue;
    (void)sub.add_link(gid(src), gid(dst), venv.link(lid(l)));
  }
  return sub;
}

/// Routes every venv link over the region of the level `region` flags (the
/// whole level when null), writing level paths into `m.link_paths` on
/// success.  `router` routes over `state`, whose links in the region hold
/// the level's capacities on entry: a failed route restores the links it
/// reserved, so the next one starts from them too.
// Refinement's inner re-route: called up to three times per descent level.
// hmn-lint: hot-path
bool route_region(core::ResidualState& state, core::LinkRouter& router,
                  const std::vector<char>* region,
                  const model::VirtualEnvironment& venv,
                  const std::vector<NodeId>& guest_host, LevelMapping& m) {
  if (region != nullptr) {
    for (const NodeId h : guest_host) {
      if ((*region)[h.index()] == 0) return false;  // guest outside the region
    }
  }
  router.restrict_to(region);
  core::NetworkingResult routed =
      core::run_networking(venv, state, guest_host, {}, &router);
  if (!routed.ok) {
    for (const graph::Path& p : routed.link_paths) state.restore_links(p);
    return false;
  }
  m.link_paths = std::move(routed.link_paths);
  return true;
}

}  // namespace

GuestId unhostable_guest(const core::ResidualState& state,
                         const model::VirtualEnvironment& venv,
                         std::span<const GuestId> group) {
  for (const GuestId g : group) {
    const model::GuestRequirements& req = venv.guest(g);
    if (!(req.mem_mb >= 0.0 && req.stor_gb >= 0.0)) return GuestId::invalid();
  }
  const std::vector<NodeId>& hosts = state.hosts();
  for (const GuestId g : group) {
    const model::GuestRequirements& req = venv.guest(g);
    if (std::none_of(hosts.begin(), hosts.end(),
                     [&](NodeId h) { return state.fits(req, h); })) {
      return g;
    }
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
    // the group's member hosts.  The coarse solve admitted the group on
    // *aggregate* capacity, but Eqs. 2-3 are per-host, so the group's
    // individual hosts may not carry the bin-packing; in that case widen
    // the region by BFS over the group adjacency (radius 1 may add only a
    // bare switch group; radius 2 reaches the sibling racks behind it),
    // staying local.  Guests no radius can place are collected and hosted
    // together in one whole-level pass at the end.  Guests an earlier
    // retry already placed inside a region are charged into the residual
    // state, so capacity is never double-booked across groups.
    std::vector<NodeId> fine_gh(venv.guest_count(), NodeId::invalid());
    // One state serves every region of the level (DESIGN §8): a try
    // restricts it to the region's hosts, resets them to the level's
    // capacities and charges the guests placed on them so far, in
    // ascending guest order — the doubles a state built on the region's
    // induced subcluster would hold.
    core::ResidualState state(fine);

    // Hosts `guests`, whose environment with the links among them is
    // `sub` (built on first use), on the region with ascending hosts
    // `hosts` and node test `inside`; writes fine_gh on success.  A guest
    // that fits on no region host once the earlier placements are charged
    // would fail Hosting, so such a try stops before the stages run.
    auto try_host = [&](std::span<const GuestId> guests,
                        std::span<const NodeId> hosts, auto inside,
                        std::optional<model::VirtualEnvironment>& sub) {
      stage.restart();
      state.restore_hosts(hosts);
      state.restrict_hosts(hosts);
      for (std::size_t g = 0; g < fine_gh.size(); ++g) {
        if (fine_gh[g].valid() && inside(fine_gh[g])) {
          state.place(venv.guest(gid(g)), fine_gh[g]);
        }
      }
      const bool hostable = !unhostable_guest(state, venv, guests).valid();
      outcome.stats.hosting_seconds += stage.elapsed_seconds();
      if (!hostable) return false;
      if (!sub.has_value()) sub = sub_venv(venv, guests);
      stage.restart();
      core::HostingResult sub_hosted = core::run_hosting(*sub, state);
      outcome.stats.hosting_seconds += stage.elapsed_seconds();
      if (!sub_hosted.ok) return false;
      stage.restart();
      outcome.stats.migrations +=
          core::run_migration(*sub, state, sub_hosted.guest_host).migrations;
      outcome.stats.migration_seconds += stage.elapsed_seconds();
      for (std::size_t i = 0; i < guests.size(); ++i) {
        fine_gh[guests[i].index()] = sub_hosted.guest_host[i];
      }
      return true;
    };

    constexpr std::size_t kMaxRadius = 3;
    std::vector<GuestId> spilled;
    std::vector<char> in_set(c.group_count(), 0);
    auto inside = [&](NodeId n) {
      return in_set[c.group_of_node[n.index()]] != 0;
    };
    std::vector<std::size_t> frontier;
    std::vector<std::size_t> next;
    std::vector<NodeId> hosts;
    std::vector<NodeId> merged;
    for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
      if (by_group[grp].empty()) continue;
      std::fill(in_set.begin(), in_set.end(), 0);
      in_set[grp] = 1;
      frontier.assign(1, grp);
      hosts.clear();
      merge_hosts(fine, c.members[grp], hosts, merged);
      std::optional<model::VirtualEnvironment> sub;
      bool placed = false;
      for (std::size_t radius = 0; radius <= kMaxRadius; ++radius) {
        if (radius > 0) {
          next.clear();
          const std::size_t had = hosts.size();
          for (const std::size_t g : frontier) {
            for (const std::size_t nb : c.adjacency[g]) {
              if (in_set[nb]) continue;
              in_set[nb] = 1;
              next.push_back(nb);
              merge_hosts(fine, c.members[nb], hosts, merged);
            }
          }
          if (next.empty()) break;  // whole component already covered
          frontier.swap(next);
          // Host-less groups leave try_host the same guests, hosts and
          // charged placements as the radius that just failed.
          if (hosts.size() == had) continue;
        }
        if (try_host(by_group[grp], hosts, inside, sub)) {
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
      std::optional<model::VirtualEnvironment> sub;
      if (!try_host(spilled, fine.hosts(), [](NodeId) { return true; },
                    sub)) {
        return fallback("level hosting");
      }
      std::fill(in_region.begin(), in_region.end(), 1);
    }

    // Re-route over the region; widen by one ring of adjacent groups, then
    // to the whole level, before giving up.  A widening that adds no node
    // would repeat the failed route, so it is skipped.  The region's nodes
    // are marked in one pass over the level.
    std::vector<char> region(fine.node_count(), 0);
    auto mark_region = [&] {
      std::size_t marked = 0;
      for (std::size_t n = 0; n < region.size(); ++n) {
        region[n] = in_region[c.group_of_node[n]];
        if (region[n] != 0) ++marked;
      }
      return marked;
    };
    core::LinkRouter router(state);
    stage.restart();
    std::size_t marked = mark_region();
    bool routed_ok = route_region(state, router, &region, venv, fine_gh, m);
    if (!routed_ok) {
      std::vector<char> widened = in_region;
      for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
        if (!in_region[grp]) continue;
        for (const std::size_t nb : c.adjacency[grp]) widened[nb] = 1;
      }
      in_region = std::move(widened);
      const std::size_t tried = marked;
      marked = mark_region();
      if (marked > tried) {
        routed_ok = route_region(state, router, &region, venv, fine_gh, m);
      }
    }
    if (!routed_ok && marked < fine.node_count()) {
      routed_ok = route_region(state, router, nullptr, venv, fine_gh, m);
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
