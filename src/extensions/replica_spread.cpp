#include "extensions/replica_spread.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/networking.h"
#include "core/residual.h"

namespace hmn::extensions {
namespace {

using model::FailureDomains;

/// Largest real domain id in `ids` plus one (0 when every entry is kNone).
/// Domain ids are opaque labels — a shard cluster keeps its *parent's*
/// blast ids, which exceed the shard's node count — so the counters must
/// be sized by the labels actually present, not by node_count.
std::size_t id_bound(const std::vector<std::uint32_t>& ids) {
  std::size_t bound = 0;
  for (const std::uint32_t id : ids) {
    if (id != FailureDomains::kNone && id + 1u > bound) bound = id + 1u;
  }
  return bound;
}

/// Domain occupancy counters for one replica group, indexed by domain id.
struct DomainCounts {
  std::vector<std::uint32_t> blast;
  std::vector<std::uint32_t> power;

  explicit DomainCounts(const FailureDomains& fd)
      : blast(id_bound(fd.blast_domain), 0),
        power(id_bound(fd.power_domain), 0) {}

  void add(const FailureDomains& fd, NodeId host) {
    const std::uint32_t b = fd.blast_domain.empty()
                                ? FailureDomains::kNone
                                : fd.blast_domain[host.index()];
    const std::uint32_t p = fd.power_domain.empty()
                                ? FailureDomains::kNone
                                : fd.power_domain[host.index()];
    if (b != FailureDomains::kNone) ++blast[b];
    if (p != FailureDomains::kNone) ++power[p];
  }

  void remove(const FailureDomains& fd, NodeId host) {
    const std::uint32_t b = fd.blast_domain.empty()
                                ? FailureDomains::kNone
                                : fd.blast_domain[host.index()];
    const std::uint32_t p = fd.power_domain.empty()
                                ? FailureDomains::kNone
                                : fd.power_domain[host.index()];
    if (b != FailureDomains::kNone) --blast[b];
    if (p != FailureDomains::kNone) --power[p];
  }

  /// Group-mates already sharing this host's blast or power domain — the
  /// quantity anti-affinity minimizes.
  [[nodiscard]] std::uint32_t cost(const FailureDomains& fd,
                                   NodeId host) const {
    std::uint32_t c = 0;
    if (!fd.blast_domain.empty() &&
        fd.blast_domain[host.index()] != FailureDomains::kNone) {
      c += blast[fd.blast_domain[host.index()]];
    }
    if (!fd.power_domain.empty() &&
        fd.power_domain[host.index()] != FailureDomains::kNone) {
      c += power[fd.power_domain[host.index()]];
    }
    return c;
  }
};

}  // namespace

ReplicaSpreadMapper::ReplicaSpreadMapper(core::MapperPtr inner)
    : inner_(std::move(inner)) {}

std::string ReplicaSpreadMapper::name() const {
  return "replica-spread(" + inner_->name() + ")";
}

core::MapOutcome ReplicaSpreadMapper::map(
    const model::PhysicalCluster& cluster,
    const model::VirtualEnvironment& venv, std::uint64_t seed) const {
  core::MapOutcome base = inner_->map(cluster, venv, seed);
  if (!base.ok() || venv.replica_group_count() == 0 ||
      cluster.failure_domains().empty()) {
    return base;  // byte-identical pass-through
  }

  const FailureDomains& fd = cluster.failure_domains();
  std::vector<NodeId> guest_host = base.mapping->guest_host;

  // Residual hard-constraint (mem/stor) bookkeeping over the placement
  // alone; links are re-routed from scratch afterwards, so bandwidth is
  // not tracked here.
  core::ResidualState state(cluster, venv, core::Mapping{guest_host, {}});

  bool moved = false;
  for (const model::ReplicaGroup& group : venv.replica_groups()) {
    DomainCounts counts(fd);
    for (const GuestId m : group.members) {
      counts.add(fd, guest_host[m.index()]);
    }
    // One greedy pass in member order: each member moves to the fitting
    // host with strictly lower group-domain sharing, preferring the most
    // spare CPU and then the lowest node id — all deterministic.
    for (const GuestId m : group.members) {
      const NodeId from = guest_host[m.index()];
      counts.remove(fd, from);
      const model::GuestRequirements& req = venv.guest(m);
      NodeId best = from;
      std::uint32_t best_cost = counts.cost(fd, from);
      for (const NodeId h : cluster.hosts()) {
        if (h == from || !state.fits(req, h)) continue;
        const std::uint32_t c = counts.cost(fd, h);
        if (c < best_cost ||
            (c == best_cost && best != from &&
             (state.residual_proc(h) > state.residual_proc(best) ||
              (state.residual_proc(h) == state.residual_proc(best) &&
               h.value() < best.value())))) {
          best = h;
          best_cost = c;
        }
      }
      if (best != from) {
        state.remove(req, from);
        state.place(req, best);
        guest_host[m.index()] = best;
        moved = true;
      }
      counts.add(fd, guest_host[m.index()]);
    }
  }
  if (!moved) return base;

  // Re-route every virtual link over the adjusted placement.  Any failure
  // falls back to the inner mapping: the spread must never reject an
  // instance the inner mapper accepted.
  core::ResidualState route_state(cluster, venv,
                                  core::Mapping{guest_host, {}});
  core::NetworkingResult net =
      core::run_networking(venv, route_state, guest_host);
  if (!net.ok) return base;

  base.mapping->guest_host = std::move(guest_host);
  base.mapping->link_paths = std::move(net.link_paths);
  base.stats.links_routed = net.links_routed;
  return base;
}

HeuristicPool replica_aware(HeuristicPool pool) {
  HeuristicPool out;
  for (core::MapperPtr& m : pool.release()) {
    out.add(std::make_unique<ReplicaSpreadMapper>(std::move(m)));
  }
  return out;
}

}  // namespace hmn::extensions
