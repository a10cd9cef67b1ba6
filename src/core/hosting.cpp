#include "core/hosting.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/rng.h"

namespace hmn::core {
namespace {

/// The host of state.hosts() with the most residual CPU among those
/// `accept` admits, the lowest NodeId on ties; invalid() when it admits
/// none.  The paper re-sorts its host list by residual CPU after every
/// assignment and takes the first host that fits; (residual CPU
/// descending, NodeId ascending) is a strict total order, so that host is
/// exactly this one-pass pick.  state.hosts() ascends by NodeId, so the
/// first maximum seen wins ties.
// hmn-lint: hot-path
template <typename Accept>
NodeId most_residual_cpu(const ResidualState& state, Accept accept) {
  NodeId best = NodeId::invalid();
  double best_proc = 0.0;
  for (const NodeId h : state.hosts()) {
    const double r = state.residual_proc(h);
    if (best.valid() && !(r > best_proc)) continue;
    if (!accept(h)) continue;
    best = h;
    best_proc = r;
  }
  return best;
}

}  // namespace

std::vector<VirtLinkId> ordered_links(const model::VirtualEnvironment& venv,
                                      LinkOrder order,
                                      std::uint64_t shuffle_seed) {
  std::vector<VirtLinkId> links;
  links.reserve(venv.link_count());
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    links.push_back(VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)});
  }
  switch (order) {
    case LinkOrder::kBandwidthDescending:
      std::stable_sort(links.begin(), links.end(),
                       [&](VirtLinkId a, VirtLinkId b) {
                         return venv.link(a).bandwidth_mbps >
                                venv.link(b).bandwidth_mbps;
                       });
      break;
    case LinkOrder::kBandwidthAscending:
      std::stable_sort(links.begin(), links.end(),
                       [&](VirtLinkId a, VirtLinkId b) {
                         return venv.link(a).bandwidth_mbps <
                                venv.link(b).bandwidth_mbps;
                       });
      break;
    case LinkOrder::kRandom: {
      util::Rng rng(shuffle_seed);
      rng.shuffle(links.begin(), links.end());
      break;
    }
  }
  return links;
}

PlacedNeighbor heaviest_placed_neighbor(const model::VirtualEnvironment& venv,
                                        const std::vector<NodeId>& guest_host,
                                        GuestId guest) {
  PlacedNeighbor best;
  for (const VirtLinkId l : venv.links_of(guest)) {
    const GuestId other = venv.endpoints(l).other(guest);
    if (other == guest || !guest_host[other.index()].valid()) continue;
    if (venv.link(l).bandwidth_mbps > best.bandwidth_mbps) {
      best.bandwidth_mbps = venv.link(l).bandwidth_mbps;
      best.host = guest_host[other.index()];
    }
  }
  return best;
}

NodeId affinity_host(const model::VirtualEnvironment& venv,
                     const ResidualState& state,
                     const std::vector<NodeId>& guest_host, GuestId guest,
                     const std::vector<bool>* down) {
  const model::GuestRequirements& req = venv.guest(guest);
  auto up = [&](NodeId h) { return down == nullptr || !(*down)[h.index()]; };
  const NodeId peer = heaviest_placed_neighbor(venv, guest_host, guest).host;
  if (peer.valid() && up(peer) && state.fits(req, peer)) return peer;
  return most_residual_cpu(
      state, [&](NodeId h) { return up(h) && state.fits(req, h); });
}

HostingResult run_hosting(const model::VirtualEnvironment& venv,
                          ResidualState& state, const HostingOptions& opts) {
  HostingResult result;
  result.guest_host.assign(venv.guest_count(), NodeId::invalid());
  if (state.hosts().empty()) {
    result.detail = "cluster has no hosts";
    return result;
  }

  auto assigned = [&](GuestId g) { return result.guest_host[g.index()].valid(); };
  auto assign = [&](GuestId g, NodeId h) {
    state.place(venv.guest(g), h);
    result.guest_host[g.index()] = h;
  };
  // The first host, fitting or not, and the first that fits `req`, of the
  // host list in residual-CPU order.
  auto first = [&] {
    return most_residual_cpu(state, [](NodeId) { return true; });
  };
  auto first_fitting = [&](const model::GuestRequirements& req) {
    return most_residual_cpu(state,
                             [&](NodeId h) { return state.fits(req, h); });
  };

  if (opts.policy == HostingPolicy::kBalanceOnly) {
    // Link-blind ablation: guests individually, descending CPU demand,
    // each to the first (most-available-CPU) host that fits.
    std::vector<GuestId> order;
    order.reserve(venv.guest_count());
    for (std::size_t gi = 0; gi < venv.guest_count(); ++gi) {
      order.push_back(GuestId{static_cast<GuestId::underlying_type>(gi)});
    }
    std::stable_sort(order.begin(), order.end(), [&](GuestId a, GuestId b) {
      return venv.guest(a).proc_mips > venv.guest(b).proc_mips;
    });
    for (const GuestId g : order) {
      const NodeId h = first_fitting(venv.guest(g));
      if (!h.valid()) {
        result.detail = "no host fits guest " + std::to_string(g.value());
        return result;
      }
      assign(g, h);
    }
    result.ok = true;
    return result;
  }

  for (const VirtLinkId l : ordered_links(venv, opts.order, opts.shuffle_seed)) {
    const auto [vs, vd] = venv.endpoints(l);
    const bool s_done = assigned(vs);
    const bool d_done = assigned(vd);

    if (s_done && d_done) continue;

    if (!s_done && !d_done) {
      // Try to co-locate both endpoints on the most-available-CPU host.
      const NodeId top = first();
      if (vs != vd && state.fits_both(venv.guest(vs), venv.guest(vd), top)) {
        assign(vs, top);
        assign(vd, top);
        continue;
      }
      if (vs == vd) {  // self-loop virtual link: one guest to place
        const NodeId h = first_fitting(venv.guest(vs));
        if (!h.valid()) {
          result.detail = "no host fits guest " + std::to_string(vs.value());
          return result;
        }
        assign(vs, h);
        continue;
      }
      // They do not fit together: the most CPU-intensive guest goes to the
      // first host able to receive it, the other to the next fitting host.
      const GuestId g1 = venv.guest(vs).proc_mips >= venv.guest(vd).proc_mips
                             ? vs : vd;
      const GuestId g2 = g1 == vs ? vd : vs;
      const NodeId h1 = first_fitting(venv.guest(g1));
      if (!h1.valid()) {
        result.detail = "no host fits guest " + std::to_string(g1.value());
        return result;
      }
      assign(g1, h1);
      const NodeId h2 = first_fitting(venv.guest(g2));
      if (!h2.valid()) {
        result.detail = "no host fits guest " + std::to_string(g2.value());
        return result;
      }
      assign(g2, h2);
      continue;
    }

    // Exactly one endpoint mapped: pull the other one onto the same host if
    // it fits, otherwise onto the first host that does.
    const GuestId done = s_done ? vs : vd;
    const GuestId todo = s_done ? vd : vs;
    const NodeId peer_host = result.guest_host[done.index()];
    NodeId target = state.fits(venv.guest(todo), peer_host)
                        ? peer_host
                        : first_fitting(venv.guest(todo));
    if (!target.valid()) {
      result.detail = "no host fits guest " + std::to_string(todo.value());
      return result;
    }
    assign(todo, target);
  }

  // Guests untouched by any virtual link (isolated nodes; the paper's
  // generator emits connected graphs, but the API permits them): first
  // fitting host in residual-CPU order.
  for (std::size_t gi = 0; gi < venv.guest_count(); ++gi) {
    const GuestId g{static_cast<GuestId::underlying_type>(gi)};
    if (assigned(g)) continue;
    const NodeId h = first_fitting(venv.guest(g));
    if (!h.valid()) {
      result.detail = "no host fits isolated guest " + std::to_string(gi);
      return result;
    }
    assign(g, h);
  }

  result.ok = true;
  return result;
}

namespace {

// Every bound below compares demand with capacity, relaxed by this margin.
// A placement that fits()/place() accept leaves every host's residual,
// computed by sequential subtraction, >= 0 in floating point.  Each
// subtraction rounds by at most u = 2^-53 of its result, which never
// exceeds the host's capacity c, so the exact demand of the k guests on a
// host is at most c * (1 + k u), and the exact total demand of G guests at
// most (1 + G u) times the exact total capacity.  A sum of N terms adds at
// most N u more.  A margin of 1e-9 therefore covers every instance with
// 2G + H below about 4 million for H hosts: an exact fit, 0.1 + 0.2 MB on
// a 0.3 MB host included, is never certified.
constexpr double kRelTol = 1e-9;

/// The most placements the packing search tries before it gives up and
/// leaves the tenant to the random tries.  On perfbench churn it reached
/// the cap on 16 of the 28 486 tenants it searched (seed 1, 6 passes).
constexpr std::size_t kPackingSearchNodes = 4096;

enum class Packing : std::uint8_t { kFound, kNone, kUnknown };

/// A guest's demand or a host's residual: memory (MB) and storage (GB).
struct MemStor {
  double mem;
  double stor;
};

/// Bitwise-equal demands or residuals are interchangeable: every
/// comparison and subtraction the search makes on them gives the same
/// result, so exact equality is what makes a symmetric branch redundant.
bool same(const MemStor& a, const MemStor& b) {
  // hmn-lint: allow(float-eq, equal values compare and subtract to the same bits, so one branch stands for both; a tolerance would merge values that differ)
  return a.mem == b.mem && a.stor == b.stor;
}

/// (mem, stor) in lexicographic order.
bool lex_less(const MemStor& a, const MemStor& b) {
  return a.mem < b.mem || (!(b.mem < a.mem) && a.stor < b.stor);
}

/// Whether next fit places every guest: each guest, in venv order, goes to
/// the first host, in cluster order and from the host the last guest took
/// on, that fits it.  It makes exactly the checks and subtractions of
/// ResidualState::fits() and place(), so success shows a packing they
/// accept, which no certificate may rule out.  O(G + H), and it keeps one
/// host's residual where a ResidualState would copy every node's and
/// edge's.
bool next_fit_packs(const model::PhysicalCluster& cluster,
                    const model::VirtualEnvironment& venv) {
  const std::vector<NodeId>& hosts = cluster.hosts();
  std::size_t open = 0;  // the host next fit fills
  MemStor left{0.0, 0.0};
  if (!hosts.empty()) {
    left = {cluster.capacity(hosts[0]).mem_mb,
            cluster.capacity(hosts[0]).stor_gb};
  }
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const auto& req =
        venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
    while (open < hosts.size() &&
           !(left.mem >= req.mem_mb && left.stor >= req.stor_gb)) {
      if (++open < hosts.size()) {
        left = {cluster.capacity(hosts[open]).mem_mb,
                cluster.capacity(hosts[open]).stor_gb};
      }
    }
    if (open == hosts.size()) return false;
    left = {left.mem - req.mem_mb, left.stor - req.stor_gb};
  }
  return true;
}

/// Depth-first search for a placement of every guest under Eqs. 2-3, for
/// guests with finite demands >= 0.  kNone proves that fits()/place() pack
/// the guests in no order; kUnknown means the search reached its node cap.
///
/// It works on capacities relaxed to c * (1 + kRelTol).  A packing that
/// fits()/place() accept puts exact demand of at most c * (1 + G u) on a
/// host (see kRelTol), and the search's own subtractions, checks
/// r >= d then r := r - d from c * (1 + kRelTol), lose at most G u c more
/// on the way, so that packing passes every check the search makes, in any
/// guest order, while (2G + 1) u < 1e-9.  The search never prunes the last
/// packing of a branch:
/// - Guests go in descending (mem, stor) order, and a guest identical to
///   the one before it takes a host at or after that guest's host:
///   swapping the hosts of two adjacent identical guests replays the same
///   checks on the same values.
/// - Of the hosts with bitwise-equal residuals, only the first allowed one
///   is tried: swapping two such hosts for the rest of the branch replays
///   the same checks too.
/// - A branch ends when the remaining guests' memory or storage exceeds,
///   by more than kRelTol, the residual total of the hosts that still hold
///   the smallest remaining memory demand and the smallest remaining
///   storage demand, each minimum taken over all remaining guests.  A host
///   below either minimum takes no remaining guest, and by the argument of
///   kRelTol the checks a host passes admit exact demand of at most
///   r * (1 + G u) on residual r, plus (2G + H) u of rounding in the sums.
/// Before it branches, the search tries that bound on all the guests and
/// then next fit, which settles most tenants: a proof at the root, or a
/// packing in O(G + H) for a loose tenant with many guests.  Each
/// placement costs O(H): the hosts stay sorted by residual, and only the
/// one host a placement changes moves.
Packing search_packing(const model::PhysicalCluster& cluster,
                       const model::VirtualEnvironment& venv) {
  const std::size_t n = venv.guest_count();
  // A leaf lies n placements deep: a larger tenant never reaches one.
  if (n > kPackingSearchNodes) return Packing::kUnknown;
  std::vector<MemStor> guest(n);
  for (std::size_t g = 0; g < n; ++g) {
    const auto& req =
        venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
    if (!std::isfinite(req.mem_mb) || !std::isfinite(req.stor_gb)) {
      return Packing::kUnknown;
    }
    guest[g] = {req.mem_mb, req.stor_gb};
  }
  std::vector<MemStor> room;
  for (const NodeId h : cluster.hosts()) {
    const model::HostCapacity& c = cluster.capacity(h);
    // A negative or NaN residual fails every fits() check.
    if (!(c.mem_mb >= 0.0 && c.stor_gb >= 0.0)) continue;
    if (std::isinf(c.mem_mb) || std::isinf(c.stor_gb)) {
      return Packing::kUnknown;
    }
    room.push_back({c.mem_mb * (1.0 + kRelTol), c.stor_gb * (1.0 + kRelTol)});
  }
  const std::size_t hosts = room.size();
  // Whether guests needing `need` in total, none less than `least` in
  // either dimension, overflow the hosts that can still take one.
  auto hopeless = [&](const MemStor& need, const MemStor& least) {
    MemStor avail{0.0, 0.0};
    for (const MemStor& r : room) {
      if (r.mem >= least.mem && r.stor >= least.stor) {
        avail.mem += r.mem;
        avail.stor += r.stor;
      }
    }
    return need.mem > avail.mem * (1.0 + kRelTol) ||
           need.stor > avail.stor * (1.0 + kRelTol);
  };
  MemStor need{0.0, 0.0};
  MemStor least{HUGE_VAL, HUGE_VAL};
  for (const MemStor& d : guest) {
    need = {need.mem + d.mem, need.stor + d.stor};
    least = {std::min(least.mem, d.mem), std::min(least.stor, d.stor)};
  }
  if (hopeless(need, least)) return Packing::kNone;
  if (next_fit_packs(cluster, venv)) return Packing::kFound;

  std::sort(guest.begin(), guest.end(), [](const MemStor& a, const MemStor& b) {
    return lex_less(b, a);
  });
  // The remaining guests' total demand and per-dimension minimum.
  std::vector<MemStor> rest_sum(n + 1, {0.0, 0.0});
  std::vector<MemStor> rest_min(n + 1, {HUGE_VAL, HUGE_VAL});
  for (std::size_t i = n; i-- > 0;) {
    rest_sum[i] = {guest[i].mem + rest_sum[i + 1].mem,
                   guest[i].stor + rest_sum[i + 1].stor};
    rest_min[i] = {std::min(guest[i].mem, rest_min[i + 1].mem),
                   std::min(guest[i].stor, rest_min[i + 1].stor)};
  }
  // Hosts by (residual mem, residual stor, index): equal residuals are
  // adjacent, lowest index first, and the first that fits is the best fit.
  auto before = [&](std::size_t a, std::size_t b) {
    return lex_less(room[a], room[b]) ||
           (!lex_less(room[b], room[a]) && a < b);
  };
  std::vector<std::size_t> order(hosts);
  for (std::size_t k = 0; k < hosts; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), before);
  // Moves order[p] to its sorted slot; returns that slot.
  auto resort = [&](std::size_t p) {
    const std::size_t k = order[p];
    for (; p > 0 && before(k, order[p - 1]); --p) order[p] = order[p - 1];
    for (; p + 1 < hosts && before(order[p + 1], k); ++p) {
      order[p] = order[p + 1];
    }
    order[p] = k;
    return p;
  };

  struct Level {
    std::size_t host = 0;  // where guest i sits
    std::size_t at = 0;    // its slot in `order` while guest i sits there
    std::size_t next = 0;  // the slot the candidate scan resumes at
    MemStor saved{};       // its residual before guest i
  };
  std::vector<Level> level(n);
  // Takes guest i off its host and resumes i's scan past the hosts whose
  // residual equalled that host's.
  auto undo = [&](std::size_t i) {
    Level& lv = level[i];
    room[lv.host] = lv.saved;
    std::size_t p = resort(lv.at) + 1;
    while (p < hosts && same(room[order[p]], lv.saved)) ++p;
    lv.next = p;
  };
  std::size_t nodes = 0;
  std::size_t i = 0;
  while (true) {
    const MemStor& d = guest[i];
    const bool repeat = i > 0 && same(d, guest[i - 1]);
    const std::size_t lowest = repeat ? level[i - 1].host : 0;
    std::size_t p = level[i].next;
    while (p < hosts && !(room[order[p]].mem >= d.mem &&
                          room[order[p]].stor >= d.stor &&
                          order[p] >= lowest)) {
      ++p;
    }
    if (p == hosts) {
      if (i == 0) return Packing::kNone;
      undo(--i);
      continue;
    }
    if (++nodes > kPackingSearchNodes) return Packing::kUnknown;
    Level& lv = level[i];
    lv.host = order[p];
    lv.saved = room[lv.host];
    room[lv.host] = {lv.saved.mem - d.mem, lv.saved.stor - d.stor};
    lv.at = resort(p);
    if (i + 1 == n) return Packing::kFound;
    if (hopeless(rest_sum[i + 1], rest_min[i + 1])) {
      undo(i);
    } else {
      level[++i].next = 0;
    }
  }
}

}  // namespace

std::optional<InfeasibilityCertificate> certify_infeasible(
    const model::PhysicalCluster& cluster,
    const model::VirtualEnvironment& venv) {
  // A negative demand frees room for the guests placed after it, which
  // none of the bounds below accounts for.
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const auto& req =
        venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
    if (!(req.mem_mb >= 0.0 && req.stor_gb >= 0.0)) return std::nullopt;
  }

  // Aggregate bound, with the margin of kRelTol.  Negative residuals are
  // clamped: such a host takes no guest, so it adds no capacity.
  double host_mem = 0.0;
  double host_stor = 0.0;
  for (const NodeId h : cluster.hosts()) {
    host_mem += std::max(cluster.capacity(h).mem_mb, 0.0);
    host_stor += std::max(cluster.capacity(h).stor_gb, 0.0);
  }
  double guest_mem = 0.0;
  double guest_stor = 0.0;
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const auto& req =
        venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
    guest_mem += req.mem_mb;
    guest_stor += req.stor_gb;
  }
  char buf[160];
  const bool mem = guest_mem > host_mem * (1.0 + kRelTol);
  if (mem || guest_stor > host_stor * (1.0 + kRelTol)) {
    std::snprintf(buf, sizeof(buf),
                  "Eq. %d (%s): the guests need %.6g %s in total, the hosts "
                  "have %.6g",
                  mem ? 2 : 3, mem ? "memory" : "storage",
                  mem ? guest_mem : guest_stor, mem ? "MB" : "GB",
                  mem ? host_mem : host_stor);
    return InfeasibilityCertificate{
        mem ? FitConstraint::kMemory : FitConstraint::kStorage,
        GuestId::invalid(), buf};
  }

  // Single-guest bound: the comparison fits() makes on an empty host.  No
  // tolerance: a residual only shrinks as guests are placed.
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const GuestId guest{static_cast<GuestId::underlying_type>(g)};
    const auto& req = venv.guest(guest);
    bool mem_somewhere = false;
    bool stor_somewhere = false;
    bool fits = false;
    for (const NodeId h : cluster.hosts()) {
      const bool mem_ok = cluster.capacity(h).mem_mb >= req.mem_mb;
      const bool stor_ok = cluster.capacity(h).stor_gb >= req.stor_gb;
      if (mem_ok && stor_ok) {
        fits = true;
        break;
      }
      mem_somewhere |= mem_ok;
      stor_somewhere |= stor_ok;
    }
    if (fits) continue;
    InfeasibilityCertificate cert;
    cert.guest = guest;
    if (!mem_somewhere) {
      cert.constraint = FitConstraint::kMemory;
      std::snprintf(buf, sizeof(buf),
                    "Eq. 2 (memory): guest %zu needs %.6g MB, no host has it",
                    g, req.mem_mb);
    } else if (!stor_somewhere) {
      cert.constraint = FitConstraint::kStorage;
      std::snprintf(buf, sizeof(buf),
                    "Eq. 3 (storage): guest %zu needs %.6g GB, no host has it",
                    g, req.stor_gb);
    } else {
      cert.constraint = FitConstraint::kMemoryOrStorage;
      std::snprintf(buf, sizeof(buf),
                    "Eq. 2 or Eq. 3: guest %zu (%.6g MB, %.6g GB) fits on no "
                    "host",
                    g, req.mem_mb, req.stor_gb);
    }
    cert.detail = buf;
    return cert;
  }

  // Packing bound: every guest fits somewhere alone and the totals fit, but
  // an exhaustive search finds no placement of all of them at once.
  if (search_packing(cluster, venv) == Packing::kNone) {
    std::snprintf(buf, sizeof(buf),
                  "Eq. 2 and Eq. 3: no placement of the %zu guests fits the "
                  "hosts' memory and storage",
                  venv.guest_count());
    return InfeasibilityCertificate{FitConstraint::kMemoryOrStorage,
                                    GuestId::invalid(), buf};
  }
  return std::nullopt;
}

}  // namespace hmn::core
