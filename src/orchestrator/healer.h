// Self-healing after substrate failures.
//
// The orchestrator (PR 1) assumed the physical cluster was immortal; the
// Healer drops that assumption.  It owns the failure masks of the
// TenancyManager and reacts to the HOST_FAIL / LINK_FAIL / *_RECOVER
// events of workload::generate_failures with per-tenant transactional
// surgery:
//
//   * a failure computes the impacted-tenant set (guest on the dead host,
//     or a path crossing a dead element) and repairs each tenant through
//     core::repair_mapping against its own exclude-one residual view,
//     committing via TenancyManager::update_mappings — commit-or-rollback,
//     so a tenant is never half-healed;
//   * a BLAST_FAIL (correlated group: a switch plus its attached subtree)
//     is one transaction: every member mask flips before any healing
//     starts, each impacted tenant is repaired exactly once against the
//     full group, and the orchestrator's invariant audit runs once per
//     group, not once per element.  Group recovery clears all member masks
//     at once (last-writer-wins against any overlapping per-element
//     stream) before a single opportunistic re-heal pass;
//   * a tenant whose guests all survive but whose *best-effort* links
//     cannot be re-routed stays admitted in an explicit **Degraded**
//     state: the unroutable links go dark (empty path, no bandwidth
//     reserved) and are re-attempted opportunistically on every recovery
//     and departure until the tenant is Restored.  A `critical` virtual
//     link never goes dark — if it cannot be re-routed the repair fails
//     and the tenant is evicted and parked (degraded-SLA scheduling);
//   * a tenant whose guests cannot be re-hosted is evicted and **parked**
//     in a healing queue with exponential backoff and a bounded attempt
//     budget; re-admission attempts run on recoveries/departures, and a
//     tenant that exhausts the budget is dropped;
//   * the kDropReadmit policy is the literature's baseline — evict the
//     whole tenant and re-admit it from scratch — which bench E13 compares
//     healing against on tenant-minutes retained.
//
// The audit() pass is an independent recomputation (nothing is trusted
// from the incremental bookkeeping): after every event no committed
// mapping may touch a failed element, an empty inter-host path must be a
// recorded dark link of a Degraded tenant, and no aggregate reservation
// may exceed capacity.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "emulator/tenancy.h"
#include "workload/churn.h"

namespace hmn::orchestrator {

enum class HealPolicy : std::uint8_t {
  kRepair,       // surgical repair_mapping + degradation (the tentpole)
  kDropReadmit,  // baseline: evict the tenant, re-admit from scratch
};

struct HealerOptions {
  HealPolicy policy = HealPolicy::kRepair;
  /// Re-admission attempts for a parked tenant before it is dropped
  /// (0 = unbounded).
  std::size_t max_heal_attempts = 6;
  /// SLA-aware healing.  When set:
  ///   * impacted tenants heal in tier order (gold, standard, best-effort;
  ///     ascending key within a tier), so gold gets first claim on whatever
  ///     spare capacity — including the EWMA healing headroom — survives
  ///     the failure;
  ///   * a tenant whose only damage is dead replicas of still-quorate
  ///     k-of-n groups **defers** repair (kReplicaDeferred): the mapping is
  ///     left untouched and the dead replicas are declared to the audit,
  ///     instead of burning migration work on a tenant that is healthy by
  ///     its own declaration;
  ///   * parked best-effort tenants re-admit with reserve_headroom=true —
  ///     they may not eat the healing reserve, so under pressure they park
  ///     first and stay parked longest.
  bool tier_aware = false;
};

enum class HealAction : std::uint8_t {
  kHealed,      // fully repaired; every link routed
  kDegraded,    // guests survive, >= 1 link dark
  kRestored,    // a previously Degraded/Deferred tenant is whole again
  kParked,      // evicted; waiting in the healing queue
  kReadmitted,  // parked tenant re-admitted
  kDropped,     // healing budget exhausted; tenant is lost
  kReplicaDeferred,  // dead replicas, quorum holds: repair deferred
};

/// One healing outcome, keyed by the churn tenant key.
struct HealRecord {
  std::uint32_t key = 0;
  HealAction action = HealAction::kHealed;
  core::MapErrorCode error = core::MapErrorCode::kNone;
  std::size_t guests_moved = 0;
  std::size_t links_rerouted = 0;
  std::size_t dark_links = 0;
  double outage = 0.0;  // kReadmitted/kDropped: event time spent parked
  model::SlaTier tier = model::SlaTier::kStandard;  // kReadmitted/kDropped
  double latency_us = 0.0;
};

/// An evicted tenant waiting to be re-admitted.
struct ParkedTenant {
  std::uint32_t key = 0;
  std::string name;
  model::VirtualEnvironment venv;
  double parked_at = 0.0;
  std::size_t attempts = 0;      // failed re-admissions so far
  double next_attempt = 0.0;     // backoff gate (event time)

  [[nodiscard]] model::SlaTier tier() const { return venv.sla_tier(); }
};

/// Bounded-exponential backoff between re-admission attempts of a parked
/// tenant, in event time: after `failed_attempts` (>= 1) failures the
/// delay is min(32, 2^(failed_attempts-1)), computed by capped repeated
/// doubling — the doubling stops the moment the cap is reached, so a long
/// outage with an unbounded attempt budget can never overflow to infinity
/// or degrade into an attempt-count-sized pow() (the schedule is flat at
/// 32 from the saturation point on).
[[nodiscard]] double backoff_delay(std::size_t failed_attempts);

class Healer {
 public:
  using LiveMap = std::map<std::uint32_t, emulator::TenantId>;

  explicit Healer(HealerOptions opts = {}) : opts_(opts) {}

  /// Handles one failure/recovery event (is_failure_event(ev.kind) must
  /// hold): flips the mask of every element workload::event_elements
  /// names on `mgr`, then heals every impacted tenant (failures) or
  /// opportunistically re-heals Degraded tenants and retries the parked
  /// queue (recoveries).  Evicted tenants leave `live`; re-admitted ones
  /// re-enter it.  Records are in deterministic (ascending-key,
  /// queue-FIFO) order.
  std::vector<HealRecord> on_event(emulator::TenancyManager& mgr,
                                   LiveMap& live,
                                   const workload::TenantEvent& ev);

  /// Capacity changed for a non-failure reason (a departure): re-heal
  /// Degraded tenants and retry the parked queue.
  std::vector<HealRecord> on_capacity_freed(emulator::TenancyManager& mgr,
                                            LiveMap& live, double now);

  /// A running tenant departed: drop its Degraded/Deferred bookkeeping.
  void forget(std::uint32_t key) {
    degraded_.erase(key);
    deferred_.erase(key);
  }

  /// A parked tenant departed before re-admission; removes and returns its
  /// parked entry when it was indeed parked.
  std::optional<ParkedTenant> abandon_parked(std::uint32_t key);
  /// Whether a tenant with this key is parked.
  [[nodiscard]] bool is_parked(std::uint32_t key) const;

  [[nodiscard]] bool is_degraded(std::uint32_t key) const {
    return degraded_.count(key) != 0;
  }
  [[nodiscard]] std::size_t degraded_count() const { return degraded_.size(); }
  [[nodiscard]] std::size_t parked_count() const { return parked_.size(); }
  /// Dark links per Degraded tenant, keyed by churn key.
  [[nodiscard]] const std::map<std::uint32_t, std::vector<VirtLinkId>>&
  degraded() const {
    return degraded_;
  }

  [[nodiscard]] bool is_deferred(std::uint32_t key) const {
    return deferred_.count(key) != 0;
  }
  [[nodiscard]] std::size_t deferred_count() const { return deferred_.size(); }
  /// Declared-dead replica guests per Deferred tenant, keyed by churn key.
  [[nodiscard]] const std::map<std::uint32_t, std::vector<GuestId>>&
  deferred() const {
    return deferred_;
  }

  /// Checkpoint support (src/recovery): the healer's complete bookkeeping
  /// — Degraded dark links, Deferred dead replicas, and the parked queue
  /// in queue order — as plain values.
  struct State {
    std::map<std::uint32_t, std::vector<VirtLinkId>> degraded;
    std::map<std::uint32_t, std::vector<GuestId>> deferred;
    std::vector<ParkedTenant> parked;
  };
  [[nodiscard]] State export_state() const;
  void restore_state(State state);

  /// Independent invariant audit: recomputes everything from the committed
  /// tenants and returns one message per violation (empty = healthy).
  /// Checks: no guest on a down node (unless it is a declared-dead replica
  /// of a Deferred tenant), no path through a down element (unless the
  /// link is incident to such a replica), an empty inter-host path only on
  /// a recorded dark link, and aggregate memory/storage/bandwidth within
  /// every capacity.
  [[nodiscard]] std::vector<std::string> audit(
      const emulator::TenancyManager& mgr, const LiveMap& live) const;

 private:
  std::optional<HealRecord> heal_one(emulator::TenancyManager& mgr,
                                     LiveMap& live, std::uint32_t key,
                                     double now);
  void evict_and_park(emulator::TenancyManager& mgr, LiveMap& live,
                      std::uint32_t key, double now);
  std::vector<HealRecord> heal_degraded(emulator::TenancyManager& mgr,
                                        LiveMap& live, double now);
  std::vector<HealRecord> heal_deferred(emulator::TenancyManager& mgr,
                                        LiveMap& live, double now);
  std::vector<HealRecord> retry_parked(emulator::TenancyManager& mgr,
                                       LiveMap& live, double now);
  /// Tier-order (gold first, ascending key within a tier) when tier_aware;
  /// otherwise leaves the ascending-key order untouched.
  void order_by_tier(const emulator::TenancyManager& mgr, const LiveMap& live,
                     std::vector<std::uint32_t>& keys) const;
  std::vector<HealRecord> heal_all(emulator::TenancyManager& mgr,
                                   LiveMap& live,
                                   std::vector<std::uint32_t> impacted,
                                   double now);

  HealerOptions opts_;
  std::map<std::uint32_t, std::vector<VirtLinkId>> degraded_;
  std::map<std::uint32_t, std::vector<GuestId>> deferred_;
  std::deque<ParkedTenant> parked_;  // FIFO (tier-major when tier_aware)
};

}  // namespace hmn::orchestrator
