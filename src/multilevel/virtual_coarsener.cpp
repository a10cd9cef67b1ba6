#include "multilevel/virtual_coarsener.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

namespace hmn::multilevel {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

GuestId gid(std::size_t i) {
  return GuestId{static_cast<GuestId::underlying_type>(i)};
}

VirtLinkId lid(std::size_t i) {
  return VirtLinkId{static_cast<VirtLinkId::underlying_type>(i)};
}

/// One coarsening round over `venv`.  `weight[g]` is the number of base
/// guests inside g.  Returns false when nothing merged (fixpoint).
bool coarsen_round(const model::VirtualEnvironment& venv,
                   std::vector<std::size_t>& weight, VirtualLevel& out) {
  const std::size_t guests = venv.guest_count();
  const std::size_t links = venv.link_count();

  // Heavy links first (ids ascending on equal bandwidth).
  std::vector<std::size_t> order(links);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const double bx = venv.link(lid(x)).bandwidth_mbps;
    const double by = venv.link(lid(y)).bandwidth_mbps;
    if (bx > by) return true;
    if (bx < by) return false;
    return x < y;
  });

  // Greedy clique growth: a heavy link either founds a new group from its
  // two ungrouped endpoints or absorbs an ungrouped endpoint into the other
  // endpoint's group, subject to the member cap.
  std::vector<std::size_t> group_of(guests, kNone);
  std::vector<std::size_t> group_weight;
  std::vector<std::vector<std::size_t>> group_members;
  bool merged = false;
  for (const std::size_t l : order) {
    const auto ep = venv.endpoints(lid(l));
    const std::size_t a = ep.src.index();
    const std::size_t b = ep.dst.index();
    if (a == b) continue;
    const std::size_t ga = group_of[a];
    const std::size_t gb = group_of[b];
    if (ga == kNone && gb == kNone) {
      if (weight[a] + weight[b] > kMaxMembers) continue;
      group_of[a] = group_of[b] = group_weight.size();
      group_weight.push_back(weight[a] + weight[b]);
      group_members.push_back({a, b});
      merged = true;
    } else if (ga != kNone && gb == kNone) {
      if (group_weight[ga] + weight[b] > kMaxMembers) continue;
      group_of[b] = ga;
      group_weight[ga] += weight[b];
      group_members[ga].push_back(b);
      merged = true;
    } else if (ga == kNone && gb != kNone) {
      if (group_weight[gb] + weight[a] > kMaxMembers) continue;
      group_of[a] = gb;
      group_weight[gb] += weight[a];
      group_members[gb].push_back(a);
      merged = true;
    }
    // Both grouped: merging two existing groups is left to later rounds
    // (the aggregated inter-group link will be heavy next time around).
  }
  if (!merged) return false;
  for (std::size_t g = 0; g < guests; ++g) {
    if (group_of[g] == kNone) {
      group_of[g] = group_weight.size();
      group_weight.push_back(weight[g]);
      group_members.push_back({g});
    }
  }

  // Renumber groups by ascending lowest member id, so coarse guest ids are
  // stable regardless of which links founded which group.
  for (auto& m : group_members) std::sort(m.begin(), m.end());
  std::vector<std::size_t> by_min(group_members.size());
  std::iota(by_min.begin(), by_min.end(), 0);
  std::sort(by_min.begin(), by_min.end(), [&](std::size_t x, std::size_t y) {
    return group_members[x][0] < group_members[y][0];
  });
  std::vector<std::size_t> renumber(group_members.size());
  for (std::size_t i = 0; i < by_min.size(); ++i) renumber[by_min[i]] = i;

  out.coarse_of_guest.assign(guests, GuestId::invalid());
  out.members.assign(group_members.size(), {});
  std::vector<std::size_t> new_weight(group_members.size(), 0);
  for (std::size_t old = 0; old < group_members.size(); ++old) {
    const std::size_t grp = renumber[old];
    new_weight[grp] = group_weight[old];
    for (const std::size_t g : group_members[old]) {
      out.coarse_of_guest[g] = gid(grp);
      out.members[grp].push_back(gid(g));
    }
  }

  // Coarse guests: summed requirements, in group order.
  for (const auto& members : out.members) {
    model::GuestRequirements req;
    for (const GuestId g : members) {
      req.proc_mips += venv.guest(g).proc_mips;
      req.mem_mb += venv.guest(g).mem_mb;
      req.stor_gb += venv.guest(g).stor_gb;
    }
    (void)out.coarse.add_guest(req);
  }

  // Coarse links: crossing finer links aggregate per group pair (bandwidth
  // summed, latency bound minimized, critical if any member is).  The
  // std::map keys give the canonical (a, b)-ascending link numbering.
  std::map<std::pair<std::size_t, std::size_t>, model::VirtualLinkDemand>
      trunk;
  for (std::size_t l = 0; l < links; ++l) {
    const auto ep = venv.endpoints(lid(l));
    const std::size_t ga = out.coarse_of_guest[ep.src.index()].index();
    const std::size_t gb = out.coarse_of_guest[ep.dst.index()].index();
    if (ga == gb) continue;
    const auto key = std::minmax(ga, gb);
    auto [it, fresh] = trunk.try_emplace(key, venv.link(lid(l)));
    if (fresh) continue;
    it->second.bandwidth_mbps += venv.link(lid(l)).bandwidth_mbps;
    it->second.max_latency_ms =
        std::min(it->second.max_latency_ms, venv.link(lid(l)).max_latency_ms);
    it->second.critical = it->second.critical || venv.link(lid(l)).critical;
  }
  std::map<std::pair<std::size_t, std::size_t>, VirtLinkId> trunk_id;
  for (const auto& [key, demand] : trunk) {
    trunk_id.emplace(key, out.coarse.add_link(gid(key.first), gid(key.second),
                                              demand));
  }
  out.coarse_of_link.assign(links, VirtLinkId::invalid());
  for (std::size_t l = 0; l < links; ++l) {
    const auto ep = venv.endpoints(lid(l));
    const std::size_t ga = out.coarse_of_guest[ep.src.index()].index();
    const std::size_t gb = out.coarse_of_guest[ep.dst.index()].index();
    if (ga == gb) continue;
    out.coarse_of_link[l] = trunk_id.at(std::minmax(ga, gb));
  }

  weight = std::move(new_weight);
  return true;
}

}  // namespace

VirtualHierarchy coarsen_virtual(const model::VirtualEnvironment& base,
                                 const VirtualCoarsenOptions& opts) {
  VirtualHierarchy h;
  std::vector<std::size_t> weight(base.guest_count(), 1);
  const model::VirtualEnvironment* cur = &base;
  constexpr std::size_t kMaxLevels = 8;
  while (cur->guest_count() > opts.target_guests &&
         h.levels.size() < kMaxLevels) {
    VirtualLevel level;
    if (!coarsen_round(*cur, weight, level)) break;
    h.levels.push_back(std::move(level));
    cur = &h.levels.back().coarse;
  }
  return h;
}

std::vector<NodeId> project_guest_host(
    const VirtualLevel& level, const std::vector<NodeId>& coarse_guest_host) {
  std::vector<NodeId> fine(level.coarse_of_guest.size(), NodeId::invalid());
  for (std::size_t g = 0; g < fine.size(); ++g) {
    fine[g] = coarse_guest_host[level.coarse_of_guest[g].index()];
  }
  return fine;
}

std::vector<graph::Path> project_link_paths(
    const VirtualLevel& level, const std::vector<graph::Path>& coarse_paths) {
  std::vector<graph::Path> fine(level.coarse_of_link.size());
  for (std::size_t l = 0; l < fine.size(); ++l) {
    const VirtLinkId cl = level.coarse_of_link[l];
    if (cl.valid()) fine[l] = coarse_paths[cl.index()];
  }
  return fine;
}

}  // namespace hmn::multilevel
