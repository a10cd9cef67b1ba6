// Tenant churn: the workload of an *online* testbed.
//
// The paper maps one virtual environment onto an idle cluster; a
// production service instead sees testers arrive, grow their experiments,
// and depart continuously.  The ChurnGenerator turns that regime into a
// deterministic, time-ordered event stream:
//
//   * ARRIVE — Poisson arrivals (exponential inter-arrival times at
//     `arrival_rate`) of tenants whose virtual environments are drawn from
//     an existing GuestProfile preset;
//   * GROW   — with probability `grow_probability` a tenant emits one
//     mid-life growth event adding guests and links;
//   * DEPART — lifetimes are exponential or Pareto (heavy-tailed sessions:
//     most testers leave quickly, a few camp on the cluster).
//
// The *substrate* misbehaves too (the paper's motivation for emulation is
// precisely that real testbeds fail); generate_failures overlays a second
// stream onto the same timeline:
//
//   * HOST_FAIL / LINK_FAIL — a physical element dies; every element is an
//     independent alternating-renewal process with configurable time-to-
//     failure (exponential, Weibull, or lognormal MTTF) and exponential
//     time-to-repair (MTTR);
//   * HOST_RECOVER / LINK_RECOVER — the element returns to service;
//   * BLAST_FAIL / BLAST_RECOVER — a *correlated* outage: a switch dies and
//     takes its attached subtree (adjacent hosts plus every incident link)
//     down atomically, as in a ToR death or rack power loss.  The whole
//     group travels in one event (member lists on the event itself) so
//     consumers can apply it as a single transactional batch.
//
// Every event carries the *parameters* of the randomness, not its outcome:
// an ARRIVE holds (guest_count, density, seed) and the venv is
// re-materialized on consumption via make_event_venv, so a recorded trace
// (io/trace.h) replays byte-for-byte identical workloads on any machine.
#pragma once

#include <cstdint>
#include <vector>

#include "model/physical_cluster.h"
#include "model/virtual_environment.h"
#include "workload/presets.h"

namespace hmn::workload {

enum class EventKind : std::uint8_t {
  kArrive,
  kGrow,
  kDepart,
  kHostFail,
  kLinkFail,
  kHostRecover,
  kLinkRecover,
  kBlastFail,
  kBlastRecover,
  kPowerFail,     // a PDU dies: its hosts (possibly across racks) go dark
  kPowerRecover,  // the one repair crew finishes this domain
};

[[nodiscard]] constexpr const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kArrive: return "arrive";
    case EventKind::kGrow: return "grow";
    case EventKind::kDepart: return "depart";
    case EventKind::kHostFail: return "host-fail";
    case EventKind::kLinkFail: return "link-fail";
    case EventKind::kHostRecover: return "host-recover";
    case EventKind::kLinkRecover: return "link-recover";
    case EventKind::kBlastFail: return "blast-fail";
    case EventKind::kBlastRecover: return "blast-recover";
    case EventKind::kPowerFail: return "power-fail";
    case EventKind::kPowerRecover: return "power-recover";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_failure_event(EventKind k) {
  return k == EventKind::kHostFail || k == EventKind::kLinkFail ||
         k == EventKind::kHostRecover || k == EventKind::kLinkRecover ||
         k == EventKind::kBlastFail || k == EventKind::kBlastRecover ||
         k == EventKind::kPowerFail || k == EventKind::kPowerRecover;
}

[[nodiscard]] constexpr bool is_recover_event(EventKind k) {
  return k == EventKind::kHostRecover || k == EventKind::kLinkRecover ||
         k == EventKind::kBlastRecover || k == EventKind::kPowerRecover;
}

/// One tenant life-cycle or substrate event.  Fields beyond (time, kind)
/// are meaningful only for the kinds noted.
struct TenantEvent {
  double time = 0.0;
  EventKind kind = EventKind::kArrive;
  std::uint32_t tenant = 0;  // generator-assigned key, unique per arrival

  std::size_t guest_count = 0;  // kArrive: venv size
  double density = 0.0;         // kArrive: virtual-graph density
  std::size_t add_guests = 0;   // kGrow: guests appended
  std::size_t add_links = 0;    // kGrow: extra links beyond attachment
  std::uint64_t seed = 0;       // kArrive/kGrow: stream seed for the draw
  std::uint32_t element = 0;    // k*Fail/k*Recover: node / edge id
                                // (kBlast*: the dead switch;
                                //  kPower*: the power-domain id, NOT a node)

  /// kArrive only: declared service tier and optional k-of-n replica group
  /// (replica_n == 0 means the tenant declares none; otherwise the venv's
  /// first replica_n guests form one group with quorum replica_k).
  model::SlaTier sla_tier = model::SlaTier::kStandard;
  std::uint32_t replica_n = 0;
  std::uint32_t replica_k = 0;

  /// kBlastFail/kBlastRecover and kPowerFail/kPowerRecover only: the
  /// correlated group — every host node and physical edge that dies with
  /// the switch (or PDU).  Sorted ascending, no duplicates; the recover
  /// event carries the identical lists so replay can restore the group
  /// without bookkeeping.
  std::vector<std::uint32_t> group_hosts;
  std::vector<std::uint32_t> group_links;

  friend bool operator==(const TenantEvent&, const TenantEvent&) = default;
};

/// The substrate elements a failure or recovery event takes down or brings
/// back, in the order the event names them.
struct EventElements {
  std::vector<std::uint32_t> nodes;
  std::vector<std::uint32_t> links;
};

/// A host or link event names its one `element`; a blast names its switch
/// `element`, then group_hosts and group_links; a power event names only
/// its groups, because its `element` is a power-domain id.  Ids are not
/// range-checked.  Tenant events name nothing.
[[nodiscard]] EventElements event_elements(const TenantEvent& ev);

/// Canonical event order: time, then tenant key, then a fixed kind rank
/// (ARRIVE < GROW < DEPART, recoveries before failures), then the failed
/// element.  Shared by the churn generator and merge_events so that any
/// composition of streams is reproducible.  Recover-before-fail matters
/// when a repair completes at the exact instant the *next* failure of the
/// same element strikes (a degenerate MTTR≈0 stream): processing the fail
/// first would let the stale recover resurrect a freshly dead element.
/// Generators guarantee a recover is strictly after its own fail, so the
/// tie can only be against a *different* renewal interval.
[[nodiscard]] bool event_before(const TenantEvent& a, const TenantEvent& b);

enum class LifetimeDistribution : std::uint8_t { kExponential, kPareto };

/// Shape of the time-to-failure draw.  All three are mean-preserving: the
/// MTTF option is always the *mean* up-time, whatever the shape.  Repair
/// times stay exponential — MTTR distributions are far less consequential
/// for placement than the failure clustering the shapes model.
enum class MttfDistribution : std::uint8_t {
  kExponential,  // memoryless (the PR-2 baseline)
  kWeibull,      // shape > 1: wear-out (hazard grows with up-time)
  kLognormal,    // heavy right tail: most elements rock-solid, a few flaky
};

[[nodiscard]] constexpr const char* to_string(MttfDistribution d) {
  switch (d) {
    case MttfDistribution::kExponential: return "exponential";
    case MttfDistribution::kWeibull: return "weibull";
    case MttfDistribution::kLognormal: return "lognormal";
  }
  return "?";
}

struct ChurnOptions {
  /// Tenant arrivals per unit time (Poisson process).
  double arrival_rate = 1.0;
  /// Arrivals are drawn in [0, horizon); departures may fall beyond it so
  /// the cluster always drains.
  double horizon = 100.0;
  double mean_lifetime = 10.0;
  LifetimeDistribution lifetime = LifetimeDistribution::kExponential;
  /// Pareto shape (> 1 so the mean exists); scale is derived from
  /// mean_lifetime.
  double pareto_alpha = 2.5;

  /// Tenant venv sizing: guest count U[min,max], fixed density, resources
  /// from `profile`.
  std::size_t min_guests = 4;
  std::size_t max_guests = 10;
  double density = 0.2;
  GuestProfile profile;

  /// Chance a tenant emits one GROW event at a uniform point of its life.
  double grow_probability = 0.2;
  /// GROW adds U[1,max_grow_guests] guests and U[0,add_guests] extra links.
  std::size_t max_grow_guests = 4;

  /// Chance a tenant declares one k-of-n replica group over its first
  /// replica_n guests (clamped to the venv size).  Zero — the default —
  /// consumes no RNG draws, so legacy streams replay byte-identically.
  double replica_probability = 0.0;
  std::uint32_t replica_n = 3;
  std::uint32_t replica_k = 2;

  /// Tier mix: a tenant is gold with probability gold_fraction, best-effort
  /// with best_effort_fraction, standard otherwise.  Both zero (the
  /// default) consumes no RNG draws.
  double gold_fraction = 0.0;
  double best_effort_fraction = 0.0;
};

/// A reproducible churn workload: the event stream plus the guest profile
/// every venv in it is drawn from (recorded in the trace header).  The
/// MTTF distribution tag is provenance metadata: failure events in the
/// stream are fully materialized, so replay never re-draws from it, but
/// the trace header records which shape produced them.
struct ChurnTrace {
  GuestProfile profile;
  MttfDistribution mttf_dist = MttfDistribution::kExponential;
  std::vector<TenantEvent> events;
};

/// Generates the event stream.  Deterministic: identical (opts, seed) give
/// identical traces.  Events are sorted by time; ties break by tenant key
/// and then ARRIVE < GROW < DEPART, so a zero-lifetime tenant still
/// arrives before it departs.
[[nodiscard]] ChurnTrace generate_churn(const ChurnOptions& opts,
                                        std::uint64_t seed);

/// Substrate failure process (per-element alternating renewal).  An MTTF
/// of zero disables that element class.
struct FailureOptions {
  /// Failures are drawn in [0, horizon); the matching recovery is always
  /// emitted, possibly beyond it, so the substrate eventually heals.
  double horizon = 100.0;
  double host_mttf = 0.0;  // mean up-time of each host node
  double host_mttr = 5.0;  // mean repair time of a failed host
  double link_mttf = 0.0;  // mean up-time of each physical link
  double link_mttr = 5.0;
  /// Correlated blast-radius events: each *switch* is its own renewal
  /// process; when it fails it takes its adjacent hosts and every incident
  /// link down in one grouped event.  Zero disables blasts.
  double blast_mttf = 0.0;  // mean up-time of each switch subtree
  double blast_mttr = 10.0;

  /// Power-domain outages: hosts are striped across `power_domains` PDUs
  /// (host i of cluster.hosts() feeds from PDU i % power_domains, so one
  /// PDU spans racks — deliberately independent of the network topology).
  /// Each domain fails on its own renewal stream, but repair is serialized
  /// through ONE crew: a domain that fails while the crew is busy waits its
  /// turn (FIFO by failure time, ties by domain id), so storms stack
  /// repairs back-to-back.  Zero power_mttf disables the class.
  double power_mttf = 0.0;  // mean up-time of each power domain
  double power_mttr = 8.0;  // mean hands-on repair time per domain
  std::uint32_t power_domains = 4;

  /// Up-time shape shared by all element classes (host, link, blast).
  MttfDistribution mttf_dist = MttfDistribution::kExponential;
  double weibull_shape = 1.5;    // k > 0; k = 1 degenerates to exponential
  double lognormal_sigma = 0.5;  // σ of ln X; mean is preserved via μ
};

/// Draws the HOST_FAIL / LINK_FAIL / BLAST_FAIL / POWER_FAIL / *_RECOVER
/// stream for `cluster`'s elements.  Host failures hit host-role nodes
/// only; link failures may hit any physical edge; blast failures hit
/// switch-role nodes and carry the switch's attached subtree (adjacent
/// hosts, incident links) as a correlated group; power failures hit whole
/// power domains (element = domain id) and carry the domain's hosts and
/// their incident links.  Deterministic: element e of each class draws
/// from its own derive_seed(seed, class, e) stream (class 1 = hosts,
/// 2 = links, 3 = blasts, 4 = power domains), so streams for different
/// clusters of the same size are comparable and enabling one class never
/// perturbs another.
[[nodiscard]] std::vector<TenantEvent> generate_failures(
    const FailureOptions& opts, const model::PhysicalCluster& cluster,
    std::uint64_t seed);

/// Merges extra events (typically a failure stream) into a trace, keeping
/// the canonical event_before order.
void merge_events(ChurnTrace& trace, std::vector<TenantEvent> extra);

/// Materializes the virtual environment of an ARRIVE event.  Deterministic
/// in (profile, event.seed).
[[nodiscard]] model::VirtualEnvironment make_event_venv(
    const GuestProfile& profile, const TenantEvent& ev);

/// Applies a GROW event to a tenant's current environment: appends
/// `add_guests` guests (each attached to a uniformly chosen existing guest,
/// keeping the venv connected) and `add_links` extra links between distinct
/// random guests.  Existing guest/link ids are unchanged, as
/// core::extend_mapping requires.
[[nodiscard]] model::VirtualEnvironment apply_growth(
    const model::VirtualEnvironment& base, const GuestProfile& profile,
    const TenantEvent& ev);

}  // namespace hmn::workload
