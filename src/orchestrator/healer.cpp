#include "orchestrator/healer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/repair.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hmn::orchestrator {
namespace {

/// Re-admission seeds are derived from a fixed base, not the arrival seed:
/// healing must replay identically whether or not the tenant was ever
/// queued for admission.
constexpr std::uint64_t kHealSeedBase = 0x48EA15EEDULL;

/// The SlaTier enum's numeric order IS the healing priority order.
int tier_rank(model::SlaTier t) { return static_cast<int>(t); }

}  // namespace

void Healer::order_by_tier(const emulator::TenancyManager& mgr,
                           const LiveMap& live,
                           std::vector<std::uint32_t>& keys) const {
  if (!opts_.tier_aware) return;
  auto tier_of = [&](std::uint32_t key) {
    const auto it = live.find(key);
    if (it == live.end()) return model::SlaTier::kStandard;
    const emulator::Tenant* t = mgr.tenant(it->second);
    return t == nullptr ? model::SlaTier::kStandard : t->venv.sla_tier();
  };
  std::stable_sort(keys.begin(), keys.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return tier_rank(tier_of(a)) < tier_rank(tier_of(b));
                   });
}

std::vector<HealRecord> Healer::heal_all(emulator::TenancyManager& mgr,
                                         LiveMap& live,
                                         std::vector<std::uint32_t> impacted,
                                         double now) {
  order_by_tier(mgr, live, impacted);
  std::vector<HealRecord> records;
  for (const std::uint32_t key : impacted) {
    if (auto r = heal_one(mgr, live, key, now)) {
      records.push_back(std::move(*r));
    }
  }
  return records;
}

double backoff_delay(std::size_t failed_attempts) {
  constexpr double kBackoffMax = 32.0;
  double delay = 1.0;
  for (std::size_t i = 1; i < failed_attempts && delay < kBackoffMax; ++i) {
    delay *= 2.0;
  }
  return delay;
}

Healer::State Healer::export_state() const {
  State state;
  state.degraded = degraded_;
  state.deferred = deferred_;
  state.parked.assign(parked_.begin(), parked_.end());
  return state;
}

void Healer::restore_state(State state) {
  degraded_ = std::move(state.degraded);
  deferred_ = std::move(state.deferred);
  parked_.assign(std::make_move_iterator(state.parked.begin()),
                 std::make_move_iterator(state.parked.end()));
}

void Healer::evict_and_park(emulator::TenancyManager& mgr, LiveMap& live,
                            std::uint32_t key, double now) {
  const emulator::TenantId id = live.at(key);
  const emulator::Tenant* tenant = mgr.tenant(id);
  ParkedTenant parked;
  parked.key = key;
  parked.name = tenant->name;
  parked.venv = tenant->venv;
  parked.parked_at = now;
  parked.attempts = 0;
  parked.next_attempt = now;  // eligible at the next capacity change
  degraded_.erase(key);
  deferred_.erase(key);
  mgr.release(id);
  live.erase(key);
  parked_.push_back(std::move(parked));
}

std::optional<HealRecord> Healer::heal_one(emulator::TenancyManager& mgr,
                                           LiveMap& live, std::uint32_t key,
                                           double now) {
  const auto it = live.find(key);
  if (it == live.end()) return std::nullopt;
  const emulator::TenantId id = it->second;
  const emulator::Tenant* tenant = mgr.tenant(id);
  if (tenant == nullptr) return std::nullopt;

  const util::Timer timer;
  HealRecord r;
  r.key = key;

  if (opts_.policy == HealPolicy::kDropReadmit) {
    // Baseline: the whole tenant is evicted and re-admitted from scratch.
    std::string name = tenant->name;
    model::VirtualEnvironment venv = tenant->venv;
    mgr.release(id);
    live.erase(it);
    // reserve_headroom=false: refugees may use the healing reserve — that
    // is exactly what admission withheld it for.
    const auto res = mgr.admit(name, venv,
                               util::derive_seed(kHealSeedBase, key, 0),
                               /*reserve_headroom=*/false);
    if (res.ok()) {
      live[key] = *res.tenant;
      r.action = HealAction::kHealed;
      r.guests_moved = venv.guest_count();
    } else {
      r.action = HealAction::kParked;
      r.error = res.error;
      ParkedTenant parked;
      parked.key = key;
      parked.name = std::move(name);
      parked.venv = std::move(venv);
      parked.parked_at = now;
      parked.next_attempt = now;
      parked_.push_back(std::move(parked));
    }
    r.latency_us = timer.elapsed_us();
    return r;
  }

  const bool was_degraded = degraded_.count(key) != 0;
  const bool was_deferred = deferred_.count(key) != 0;

  if (opts_.tier_aware && tenant->venv.replica_group_count() > 0) {
    // Deferral check: when every piece of damage is a dead replica of a
    // still-quorate k-of-n group (and links crossing dead elements are all
    // incident to such replicas), the tenant is healthy by its own
    // declaration — leave the mapping untouched, declare the corpses to
    // the audit, and let recovery restore them for free.
    const model::VirtualEnvironment& venv = tenant->venv;
    std::vector<GuestId> down_replicas;
    bool other_damage = false;
    std::vector<bool> guest_down(venv.guest_count(), false);
    for (std::size_t gi = 0; gi < venv.guest_count(); ++gi) {
      const GuestId g{static_cast<GuestId::underlying_type>(gi)};
      if (!mgr.is_node_down(tenant->mapping.guest_host[gi])) continue;
      guest_down[gi] = true;
      if (venv.group_of(g) == model::VirtualEnvironment::npos) {
        other_damage = true;
      } else {
        down_replicas.push_back(g);
      }
    }
    bool quorum_ok = true;
    for (const model::ReplicaGroup& group : venv.replica_groups()) {
      std::size_t alive = 0;
      for (const GuestId m : group.members) {
        if (!guest_down[m.index()]) ++alive;
      }
      if (alive < group.required) quorum_ok = false;
    }
    const graph::Graph& g = mgr.cluster().graph();
    for (std::size_t li = 0; !other_damage && li < venv.link_count(); ++li) {
      const auto lid = VirtLinkId{static_cast<VirtLinkId::underlying_type>(li)};
      const auto& path = tenant->mapping.link_paths[li];
      bool dead = false;
      for (const EdgeId e : path) {
        const auto ep = g.endpoints(e);
        if (mgr.is_link_down(e) || mgr.is_node_down(ep.a) ||
            mgr.is_node_down(ep.b)) {
          dead = true;
          break;
        }
      }
      if (!dead) continue;
      const auto ep = venv.endpoints(lid);
      if (!guest_down[ep.src.index()] && !guest_down[ep.dst.index()]) {
        other_damage = true;
      }
    }
    if (!other_damage && quorum_ok && !down_replicas.empty()) {
      deferred_[key] = std::move(down_replicas);
      r.action = HealAction::kReplicaDeferred;
      r.latency_us = timer.elapsed_us();
      return r;
    }
  }
  // Not (or no longer) deferrable: any stale deferral resolves through a
  // real repair below.
  deferred_.erase(key);

  core::RepairOptions ro;
  ro.failed = mgr.failed_elements();
  ro.allow_dark_links = true;
  core::RepairStats rs;
  const model::PhysicalCluster view = mgr.residual_cluster_excluding(id);
  core::MapOutcome outcome =
      core::repair_mapping(view, tenant->venv, tenant->mapping, ro, &rs);
  if (outcome.ok() && mgr.update_mappings({{id, *outcome.mapping}})) {
    r.guests_moved = rs.guests_moved;
    r.links_rerouted = rs.links_rerouted;
    r.dark_links = rs.dark_links.size();
    if (rs.dark_links.empty()) {
      degraded_.erase(key);
      r.action = was_degraded || was_deferred ? HealAction::kRestored
                                              : HealAction::kHealed;
    } else {
      degraded_[key] = std::move(rs.dark_links);
      r.action = HealAction::kDegraded;
    }
  } else {
    // Hosting cannot be repaired (or the commit was refused): evict the
    // tenant and park it for re-admission.
    r.action = HealAction::kParked;
    r.error = outcome.ok() ? core::MapErrorCode::kInvalidInput : outcome.error;
    evict_and_park(mgr, live, key, now);
  }
  r.latency_us = timer.elapsed_us();
  return r;
}

std::vector<HealRecord> Healer::heal_degraded(emulator::TenancyManager& mgr,
                                              LiveMap& live, double now) {
  std::vector<HealRecord> out;
  std::vector<std::uint32_t> keys;
  keys.reserve(degraded_.size());
  for (const auto& [key, dark] : degraded_) keys.push_back(key);
  order_by_tier(mgr, live, keys);
  for (const std::uint32_t key : keys) {
    auto r = heal_one(mgr, live, key, now);
    // A tenant that merely *stays* Degraded (or sits out as Deferred) is
    // not an event; Restored and Parked transitions are.
    if (r.has_value() && r->action != HealAction::kDegraded &&
        r->action != HealAction::kReplicaDeferred) {
      out.push_back(std::move(*r));
    }
  }
  return out;
}

std::vector<HealRecord> Healer::heal_deferred(emulator::TenancyManager& mgr,
                                              LiveMap& live, double now) {
  std::vector<HealRecord> out;
  std::vector<std::uint32_t> keys;
  keys.reserve(deferred_.size());
  for (const auto& [key, guests] : deferred_) keys.push_back(key);
  order_by_tier(mgr, live, keys);
  for (const std::uint32_t key : keys) {
    // Skip tenants that also carry dark links: heal_degraded owns them.
    if (degraded_.count(key) != 0) continue;
    auto r = heal_one(mgr, live, key, now);
    // Staying Deferred is not an event; a resolution (Restored, Degraded,
    // Parked) is.
    if (r.has_value() && r->action != HealAction::kReplicaDeferred) {
      out.push_back(std::move(*r));
    }
  }
  return out;
}

std::vector<HealRecord> Healer::retry_parked(emulator::TenancyManager& mgr,
                                             LiveMap& live, double now) {
  std::vector<HealRecord> out;
  if (opts_.tier_aware) {
    // Tier-major queue: gold re-admits first and therefore gets first
    // claim on freed capacity; FIFO within a tier (stable sort).
    std::stable_sort(parked_.begin(), parked_.end(),
                     [](const ParkedTenant& a, const ParkedTenant& b) {
                       return tier_rank(a.tier()) < tier_rank(b.tier());
                     });
  }
  std::deque<ParkedTenant> keep;
  while (!parked_.empty()) {
    ParkedTenant entry = std::move(parked_.front());
    parked_.pop_front();
    if (entry.next_attempt > now) {
      keep.push_back(std::move(entry));
      continue;
    }
    const util::Timer timer;
    ++entry.attempts;
    // Best-effort refugees may not eat the EWMA healing reserve — under
    // pressure they park first and stay parked longest; gold and standard
    // spend the reserve, which is exactly what admission withheld it for.
    const bool spare_reserve =
        opts_.tier_aware && entry.tier() == model::SlaTier::kBestEffort;
    const auto res = mgr.admit(
        entry.name, entry.venv,
        util::derive_seed(kHealSeedBase, entry.key, entry.attempts),
        /*reserve_headroom=*/spare_reserve);
    HealRecord r;
    r.key = entry.key;
    r.tier = entry.tier();
    if (res.ok()) {
      live[entry.key] = *res.tenant;
      r.action = HealAction::kReadmitted;
      r.outage = now - entry.parked_at;
      r.latency_us = timer.elapsed_us();
      out.push_back(r);
      continue;
    }
    r.error = res.error;
    if (opts_.max_heal_attempts != 0 &&
        entry.attempts >= opts_.max_heal_attempts) {
      r.action = HealAction::kDropped;
      r.outage = now - entry.parked_at;
      r.latency_us = timer.elapsed_us();
      out.push_back(r);
      continue;
    }
    entry.next_attempt = now + backoff_delay(entry.attempts);
    keep.push_back(std::move(entry));
  }
  parked_ = std::move(keep);
  return out;
}

std::vector<HealRecord> Healer::on_capacity_freed(
    emulator::TenancyManager& mgr, LiveMap& live, double now) {
  // Deferred tenants recheck first: a recovery that revives their declared
  // corpses restores them without consuming any of the capacity the
  // degraded/parked passes are about to compete for.
  std::vector<HealRecord> records = heal_deferred(mgr, live, now);
  std::vector<HealRecord> degraded = heal_degraded(mgr, live, now);
  records.insert(records.end(), std::make_move_iterator(degraded.begin()),
                 std::make_move_iterator(degraded.end()));
  std::vector<HealRecord> readmissions = retry_parked(mgr, live, now);
  records.insert(records.end(),
                 std::make_move_iterator(readmissions.begin()),
                 std::make_move_iterator(readmissions.end()));
  return records;
}

std::vector<HealRecord> Healer::on_event(emulator::TenancyManager& mgr,
                                         LiveMap& live,
                                         const workload::TenantEvent& ev) {
  const model::PhysicalCluster& cluster = mgr.cluster();
  // A host, link or blast event whose own element is out of range is
  // ignored whole; a power event's element is a domain id, not a node.
  const bool link_event = ev.kind == workload::EventKind::kLinkFail ||
                          ev.kind == workload::EventKind::kLinkRecover;
  const bool power_event = ev.kind == workload::EventKind::kPowerFail ||
                           ev.kind == workload::EventKind::kPowerRecover;
  if (!power_event && ev.element >= (link_event ? cluster.link_count()
                                                : cluster.node_count())) {
    return {};
  }
  // Out-of-range group members are skipped.
  const workload::EventElements elements = workload::event_elements(ev);
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  for (const std::uint32_t n : elements.nodes) {
    if (n < cluster.node_count()) nodes.push_back(NodeId{n});
  }
  for (const std::uint32_t l : elements.links) {
    if (l < cluster.link_count()) edges.push_back(EdgeId{l});
  }
  // A correlated group is one transaction: every mask flips *before* any
  // tenant is healed, or a repair mid-group would route around one corpse
  // straight through the next; the per-event invariant audit then runs
  // once for the whole group, not once per element.
  const bool down = !workload::is_recover_event(ev.kind);
  for (const NodeId n : nodes) mgr.set_node_down(n, down);
  for (const EdgeId e : edges) mgr.set_link_down(e, down);
  // One opportunistic pass for everything a recovery restored.
  if (!down) return on_capacity_freed(mgr, live, ev.time);

  // Union impacted set: each tenant touched by *any* element is repaired
  // exactly once, against the full failure set.
  std::vector<std::uint32_t> impacted;
  for (const auto& [key, id] : live) {
    const emulator::Tenant* t = mgr.tenant(id);
    if (t == nullptr) continue;
    const auto touches_node = [&](NodeId n) {
      return !core::mapping_avoids_node(cluster, t->mapping, n);
    };
    const auto touches_edge = [&](EdgeId e) {
      return !core::mapping_avoids_edge(t->mapping, e);
    };
    if (std::any_of(nodes.begin(), nodes.end(), touches_node) ||
        std::any_of(edges.begin(), edges.end(), touches_edge)) {
      impacted.push_back(key);
    }
  }
  return heal_all(mgr, live, std::move(impacted), ev.time);
}

std::optional<ParkedTenant> Healer::abandon_parked(std::uint32_t key) {
  const auto it = std::find_if(
      parked_.begin(), parked_.end(),
      [key](const ParkedTenant& p) { return p.key == key; });
  if (it == parked_.end()) return std::nullopt;
  ParkedTenant parked = std::move(*it);
  parked_.erase(it);
  return parked;
}

bool Healer::is_parked(std::uint32_t key) const {
  return std::any_of(parked_.begin(), parked_.end(),
                     [key](const ParkedTenant& p) { return p.key == key; });
}

std::vector<std::string> Healer::audit(const emulator::TenancyManager& mgr,
                                       const LiveMap& live) const {
  std::vector<std::string> violations;
  const model::PhysicalCluster& cluster = mgr.cluster();
  const graph::Graph& g = cluster.graph();
  auto edge_dead = [&](EdgeId e) {
    const auto ep = g.endpoints(e);
    return mgr.is_link_down(e) || mgr.is_node_down(ep.a) ||
           mgr.is_node_down(ep.b);
  };

  // Aggregates recomputed from scratch; the manager's incremental
  // bookkeeping is exactly what this pass refuses to trust.
  std::vector<double> mem(cluster.node_count(), 0.0);
  std::vector<double> stor(cluster.node_count(), 0.0);
  std::vector<double> bw(cluster.link_count(), 0.0);

  for (const auto& [key, id] : live) {
    const emulator::Tenant* t = mgr.tenant(id);
    const std::string who = "tenant " + std::to_string(key);
    if (t == nullptr) {
      violations.push_back(who + ": live but unknown to the manager");
      continue;
    }
    const auto defit = deferred_.find(key);
    auto guest_deferred = [&](std::size_t gi) {
      return defit != deferred_.end() &&
             std::find(defit->second.begin(), defit->second.end(),
                       GuestId{static_cast<GuestId::underlying_type>(gi)}) !=
                 defit->second.end();
    };
    for (std::size_t gi = 0; gi < t->venv.guest_count(); ++gi) {
      const NodeId h = t->mapping.guest_host[gi];
      if (!h.valid() || !cluster.is_host(h)) {
        violations.push_back(who + ": guest " + std::to_string(gi) +
                             " has no valid host");
        continue;
      }
      // A declared-dead replica of a Deferred tenant may sit on a down
      // host: that is precisely what deferral means.
      if (mgr.is_node_down(h) && !guest_deferred(gi)) {
        violations.push_back(who + ": guest " + std::to_string(gi) +
                             " placed on failed host " +
                             std::to_string(h.value()));
      }
      const auto& req =
          t->venv.guest(GuestId{static_cast<GuestId::underlying_type>(gi)});
      mem[h.index()] += req.mem_mb;
      stor[h.index()] += req.stor_gb;
    }
    const auto dit = degraded_.find(key);
    for (std::size_t li = 0; li < t->venv.link_count(); ++li) {
      const auto lid = VirtLinkId{static_cast<VirtLinkId::underlying_type>(li)};
      const auto ep = t->venv.endpoints(lid);
      const auto& path = t->mapping.link_paths[li];
      if (path.empty()) {
        const NodeId hs = t->mapping.guest_host[ep.src.index()];
        const NodeId hd = t->mapping.guest_host[ep.dst.index()];
        const bool declared_dark =
            dit != degraded_.end() &&
            std::find(dit->second.begin(), dit->second.end(), lid) !=
                dit->second.end();
        if (hs != hd && !declared_dark) {
          violations.push_back(who + ": link " + std::to_string(li) +
                               " is inter-host yet unrouted and not a "
                               "declared dark link");
        }
        continue;
      }
      const double demand = t->venv.link(lid).bandwidth_mbps;
      // A path incident to a declared-dead replica may cross dead
      // elements — its traffic is moot until the replica returns.
      const bool deferred_link =
          guest_deferred(ep.src.index()) || guest_deferred(ep.dst.index());
      for (const EdgeId e : path) {
        if (edge_dead(e) && !deferred_link) {
          violations.push_back(who + ": link " + std::to_string(li) +
                               " routed through failed element (edge " +
                               std::to_string(e.value()) + ")");
        }
        bw[e.index()] += demand;
      }
    }
  }

  for (const NodeId h : cluster.hosts()) {
    const auto& cap = cluster.capacity(h);
    if (mem[h.index()] > cap.mem_mb + 1e-6 * (1.0 + cap.mem_mb)) {
      violations.push_back("node " + std::to_string(h.value()) +
                           ": negative residual memory");
    }
    if (stor[h.index()] > cap.stor_gb + 1e-6 * (1.0 + cap.stor_gb)) {
      violations.push_back("node " + std::to_string(h.value()) +
                           ": negative residual storage");
    }
  }
  for (std::size_t e = 0; e < cluster.link_count(); ++e) {
    const auto id = EdgeId{static_cast<EdgeId::underlying_type>(e)};
    const double cap = cluster.link(id).bandwidth_mbps;
    if (bw[e] > cap + 1e-6 * (1.0 + cap)) {
      violations.push_back("edge " + std::to_string(e) +
                           ": negative residual bandwidth");
    }
  }
  return violations;
}

}  // namespace hmn::orchestrator
