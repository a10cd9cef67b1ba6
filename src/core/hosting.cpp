#include "core/hosting.h"

#include <algorithm>
#include <cstdio>

#include "util/rng.h"

namespace hmn::core {
namespace {

/// The host with the most residual CPU among those `accept` admits, the
/// lowest NodeId on ties; invalid() when it admits none.  The paper
/// re-sorts its host list by residual CPU after every assignment and takes
/// the first host that fits; (residual CPU descending, NodeId ascending)
/// is a strict total order, so that host is exactly this one-pass pick.
/// cluster.hosts() ascends by NodeId, so the first maximum seen wins ties.
// hmn-lint: hot-path
template <typename Accept>
NodeId most_residual_cpu(const ResidualState& state, Accept accept) {
  NodeId best = NodeId::invalid();
  double best_proc = 0.0;
  for (const NodeId h : state.cluster().hosts()) {
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
  if (state.cluster().host_count() == 0) {
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

std::optional<InfeasibilityCertificate> certify_infeasible(
    const model::PhysicalCluster& cluster,
    const model::VirtualEnvironment& venv) {
  // Aggregate bound.  A placement that fits()/place() accept leaves every
  // host's residual, computed by sequential subtraction, >= 0 in floating
  // point.  Each subtraction rounds by at most u = 2^-53 of its result,
  // which never exceeds the host's capacity c, so the exact demand of the
  // k guests on a host is at most c * (1 + k u), and the exact total
  // demand of G guests at most (1 + G u) times the exact total capacity.
  // The two sums below add at most (G + H) u more for H hosts.  A margin
  // of kRelTol = 1e-9 therefore covers every instance with 2G + H below
  // about 4 million: an exact fit, 0.1 + 0.2 MB on a 0.3 MB host included,
  // is never certified.  Negative residuals are clamped: such a host takes
  // no guest, so it adds no capacity.
  constexpr double kRelTol = 1e-9;
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
  return std::nullopt;
}

}  // namespace hmn::core
