#include "orchestrator/orchestrator.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/mapping.h"
#include "core/objective.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace hmn::orchestrator {
namespace {

/// Share of every host's memory/storage an availability-aware
/// orchestrator withholds from new tenants once failures have been seen.
constexpr double kSpareHeadroom = 0.1;

std::string tenant_name(std::uint32_t key) {
  return "t" + std::to_string(key);
}

/// Writes the canonical form of one decision into `buf` and returns its
/// length — the one format decision_signature() concatenates and the run
/// fingerprint chain folds, so run_fingerprint() == fnv1a(signature).
std::size_t format_decision(const EventDecision& d, char (&buf)[128]) {
  const int n = std::snprintf(
      buf, sizeof(buf), "%.17g|%d|%u|%d|%d|%016" PRIx64 ";", d.time,
      static_cast<int>(d.kind), d.tenant, static_cast<int>(d.decision),
      static_cast<int>(d.error), d.placement_hash);
  return static_cast<std::size_t>(n);
}

}  // namespace

double OrchestratorReport::acceptance_rate() const {
  if (arrivals == 0) return 0.0;
  return static_cast<double>(admitted_immediately + admitted_from_queue) /
         static_cast<double>(arrivals);
}

double OrchestratorReport::mean_queue_wait() const {
  std::vector<double> waits;
  for (const EventDecision& d : decisions) {
    if (d.decision == Decision::kAdmittedFromQueue) {
      waits.push_back(d.queue_wait);
    }
  }
  return util::mean(waits);
}

double OrchestratorReport::latency_percentile_us(double p) const {
  std::vector<double> latencies;
  latencies.reserve(decisions.size());
  for (const EventDecision& d : decisions) latencies.push_back(d.latency_us);
  return util::percentile(latencies, p);
}

std::string OrchestratorReport::decision_signature() const {
  std::string out;
  char buf[128];
  for (const EventDecision& d : decisions) {
    out.append(buf, format_decision(d, buf));
  }
  return out;
}

Orchestrator::Orchestrator(model::PhysicalCluster cluster,
                           workload::GuestProfile profile,
                           OrchestratorOptions opts)
    : Orchestrator(std::move(cluster), profile, extensions::default_pool(),
                   opts) {}

Orchestrator::Orchestrator(model::PhysicalCluster cluster,
                           workload::GuestProfile profile,
                           extensions::HeuristicPool pool,
                           OrchestratorOptions opts)
    : mgr_(std::move(cluster), std::move(pool)),
      profile_(profile),
      opts_(opts),
      queue_(opts.retry_max_attempts, opts.max_queue, opts.queue_policy,
             opts.retry_max_passovers),
      healer_(opts.healer),
      avail_(mgr_.cluster().node_count()) {}

void Orchestrator::observe_failure_event(const workload::TenantEvent& ev) {
  // Every node the event names; the tracker ignores out-of-range ids
  // itself.  A failed link only starts the history.
  const workload::EventElements elements = workload::event_elements(ev);
  const bool recover = workload::is_recover_event(ev.kind);
  for (const std::uint32_t n : elements.nodes) {
    if (recover) {
      avail_.on_node_recover(n, ev.time);
    } else {
      avail_.on_node_fail(n, ev.time);
    }
  }
  if (!recover && !elements.links.empty()) avail_.on_link_fail();
  // Install the bias only once the tracker has history — before the first
  // failure nothing is set, so an aware failure-free run stays
  // byte-identical to a blind one (the E15 tie gate).
  if (opts_.availability_aware && avail_.has_history()) {
    mgr_.set_host_weights(avail_.node_weights());
    mgr_.set_admission_headroom(kSpareHeadroom);
  }
}

std::uint64_t Orchestrator::placement_hash(emulator::TenantId id) const {
  const emulator::Tenant* tenant = mgr_.tenant(id);
  if (tenant == nullptr) return 0;
  return core::placement_hash(tenant->mapping.guest_host);
}

void Orchestrator::record(EventDecision decision) {
  // The fingerprint chain survives a checkpoint; the vector does not.
  char buf[128];
  run_fingerprint_ = util::fnv1a_bytes(
      run_fingerprint_, {buf, format_decision(decision, buf)});
  report_.decisions.push_back(std::move(decision));
}

void Orchestrator::emit_txn(TxnKind kind, double time, std::uint32_t key,
                            std::uint64_t detail) {
  if (observer_ == nullptr) return;
  TxnRecord txn;
  txn.kind = kind;
  txn.time = time;
  txn.key = key;
  txn.detail = detail;
  observer_->on_txn(txn);
}

void Orchestrator::sample(double time) {
  const emulator::TenancyUtilization u = mgr_.utilization();
  UtilizationSample s;
  s.time = time;
  s.mem_fraction = u.mem_fraction;
  s.lbf = core::load_balance_factor(mgr_.residual_host_proc());
  s.live_tenants = live_.size();
  s.queued = queue_.size();
  report_.timeline.push_back(s);
}

void Orchestrator::maybe_defrag(double now) {
  // Defrag rebuilds residuals from the unmasked cluster and re-routes every
  // link from scratch; while elements are down, tenants run dark links, or
  // replica repairs sit deferred (their mappings deliberately reference
  // dead elements) it would either abort or silently fight the healer —
  // suppress it.
  if (mgr_.has_failed_elements() || healer_.degraded_count() > 0 ||
      healer_.deferred_count() > 0) {
    return;
  }
  const std::size_t k = opts_.defrag_every_departures;
  if (k == 0 || departures_ % k != 0) return;
  const util::Timer timer;
  const DefragResult pass = run_defrag(mgr_);
  report_.defrag.total_seconds += timer.elapsed_seconds();
  report_.defrag.migration_seconds += pass.migration_seconds;
  report_.defrag.reroute_seconds += pass.reroute_seconds;
  ++report_.defrag.passes;
  if (pass.committed) {
    ++report_.defrag.committed;
    report_.defrag.migrations += pass.migrations;
    report_.defrag.lbf_reduction += pass.lbf_before - pass.lbf_after;
    emit_txn(TxnKind::kDefragCommit, now, 0, pass.migrations);
  }
}

void Orchestrator::drain_queue(double now) {
  // Ordered map: this sits on the decision path (latencies key the records
  // below), and hmn-lint bans unordered containers here outright — the
  // handful of keys per drain makes the tree overhead unmeasurable.
  std::map<std::uint32_t, double> latencies;
  auto outcome = queue_.drain([&](PendingTenant& entry) {
    const util::Timer timer;
    // Each attempt gets a fresh derived seed: a randomized fallback mapper
    // retrying with the arrival seed would fail identically forever.
    const auto result =
        mgr_.admit(entry.name, entry.venv,
                   util::derive_seed(entry.seed, entry.attempts));
    latencies[entry.key] = timer.elapsed_us();
    if (!result.ok()) return false;
    live_[entry.key] = *result.tenant;
    return true;
  });

  for (const PendingTenant& entry : outcome.admitted) {
    EventDecision d;
    d.time = now;
    d.kind = workload::EventKind::kArrive;
    d.tenant = entry.key;
    d.decision = Decision::kAdmittedFromQueue;
    d.queue_wait = now - entry.enqueued_at;
    d.latency_us = latencies[entry.key];
    d.placement_hash = placement_hash(live_.at(entry.key));
    ++report_.admitted_from_queue;
    record(d);
    emit_txn(TxnKind::kBackfillCommit, now, entry.key, d.placement_hash);
  }
  for (const PendingTenant& entry : outcome.dropped) {
    EventDecision d;
    d.time = now;
    d.kind = workload::EventKind::kArrive;
    d.tenant = entry.key;
    d.decision = Decision::kDropped;
    d.error = core::MapErrorCode::kTriesExhausted;
    d.queue_wait = now - entry.enqueued_at;
    d.latency_us = latencies[entry.key];
    ++report_.dropped;
    record(d);
    emit_txn(TxnKind::kQueueDrop, now, entry.key, entry.attempts);
  }
  for (const PendingTenant& entry : outcome.preempted) {
    EventDecision d;
    d.time = now;
    d.kind = workload::EventKind::kArrive;
    d.tenant = entry.key;
    d.decision = Decision::kPreempted;
    d.queue_wait = now - entry.enqueued_at;
    d.latency_us = latencies[entry.key];
    ++report_.preempted;
    record(d);
    emit_txn(TxnKind::kQueuePreempt, now, entry.key, entry.passed_over);
  }
}

void Orchestrator::add_lost(model::SlaTier tier, double amount) {
  report_.tenant_minutes_lost += amount;
  switch (tier) {
    case model::SlaTier::kGold:
      report_.tenant_minutes_lost_gold += amount;
      break;
    case model::SlaTier::kStandard:
      report_.tenant_minutes_lost_standard += amount;
      break;
    case model::SlaTier::kBestEffort:
      report_.tenant_minutes_lost_best_effort += amount;
      break;
  }
}

void Orchestrator::close_degraded_window(std::uint32_t key, double now) {
  const auto it = degraded_since_.find(key);
  if (it == degraded_since_.end()) return;
  report_.degraded_minutes += now - it->second;
  degraded_since_.erase(it);
}

void Orchestrator::record_heals(const std::vector<HealRecord>& records,
                                double now, workload::EventKind kind) {
  for (const HealRecord& r : records) {
    EventDecision d;
    d.time = now;
    d.kind = kind;
    d.tenant = r.key;
    d.error = r.error;
    d.latency_us = r.latency_us;
    switch (r.action) {
      case HealAction::kHealed:
        d.decision = Decision::kHealed;
        ++report_.healed;
        break;
      case HealAction::kDegraded:
        d.decision = Decision::kDegraded;
        ++report_.degraded;
        degraded_since_.try_emplace(r.key, now);
        break;
      case HealAction::kRestored:
        d.decision = Decision::kRestored;
        ++report_.restored;
        close_degraded_window(r.key, now);
        break;
      case HealAction::kParked:
        d.decision = Decision::kParked;
        ++report_.parked;
        close_degraded_window(r.key, now);
        break;
      case HealAction::kReadmitted:
        d.decision = Decision::kReadmitted;
        ++report_.readmitted;
        d.queue_wait = r.outage;
        add_lost(r.tier, r.outage);
        break;
      case HealAction::kDropped:
        d.decision = Decision::kHealDropped;
        ++report_.heal_dropped;
        d.queue_wait = r.outage;
        // The loss keeps accruing until the tenant's own DEPART event.
        lost_since_[r.key] = LostWindow{now - r.outage, r.tier};
        break;
      case HealAction::kReplicaDeferred:
        d.decision = Decision::kReplicaDeferred;
        ++report_.replica_deferred;
        break;
    }
    const auto lit = live_.find(r.key);
    if (lit != live_.end() && r.action != HealAction::kParked &&
        r.action != HealAction::kDropped) {
      d.placement_hash = placement_hash(lit->second);
    }
    record(d);
    emit_txn(TxnKind::kHealAction, now, r.key,
             static_cast<std::uint64_t>(r.action) << 32 |
                 static_cast<std::uint64_t>(d.placement_hash & 0xffffffffULL));
  }
}

void Orchestrator::run_audit(double now) {
  for (std::string& v : healer_.audit(mgr_, live_)) {
    report_.invariant_violations.push_back(std::to_string(now) + ": " +
                                           std::move(v));
  }
}

EventDecision Orchestrator::handle(const workload::TenantEvent& ev) {
  // A second arrive for a key the orchestrator still holds would overwrite
  // its live entry (or queue or park the key twice), and the first tenant
  // would never be released.  Refused before anything changes or is
  // journaled.
  if (ev.kind == workload::EventKind::kArrive) {
    const char* held = live_.contains(ev.tenant) ? "live"
                       : queue_.contains(ev.tenant) ? "queued"
                       : healer_.is_parked(ev.tenant) ? "parked"
                                                      : nullptr;
    if (held != nullptr) {
      throw std::invalid_argument("arrive for tenant key " +
                                  std::to_string(ev.tenant) +
                                  ", which is already " + held);
    }
  }
  if (observer_ != nullptr) observer_->on_event_begin(event_index_, ev);
  const util::Timer timer;
  EventDecision d;
  d.time = ev.time;
  d.kind = ev.kind;
  d.tenant = ev.tenant;
  bool freed_capacity = false;
  bool recovered = false;
  std::vector<HealRecord> heals;

  switch (ev.kind) {
    case workload::EventKind::kArrive: {
      ++report_.arrivals;
      model::VirtualEnvironment venv = workload::make_event_venv(profile_, ev);
      const auto result =
          mgr_.admit(tenant_name(ev.tenant), venv, ev.seed);
      if (result.ok()) {
        live_[ev.tenant] = *result.tenant;
        d.decision = Decision::kAdmitted;
        d.placement_hash = placement_hash(*result.tenant);
        ++report_.admitted_immediately;
        emit_txn(TxnKind::kAdmitCommit, ev.time, ev.tenant, d.placement_hash);
      } else {
        d.error = result.error;
        PendingTenant pending;
        pending.key = ev.tenant;
        pending.name = tenant_name(ev.tenant);
        pending.venv = std::move(venv);
        pending.seed = ev.seed;
        pending.enqueued_at = ev.time;
        pending.attempts = 1;  // the arrival itself
        if (queue_.push(std::move(pending))) {
          d.decision = Decision::kQueued;
          emit_txn(TxnKind::kQueuePush, ev.time, ev.tenant, 0);
        } else {
          d.decision = Decision::kRejected;
          ++report_.rejected;
          emit_txn(TxnKind::kQueueReject, ev.time, ev.tenant, 0);
        }
      }
      break;
    }
    case workload::EventKind::kGrow: {
      const auto it = live_.find(ev.tenant);
      if (it == live_.end()) {
        d.decision = Decision::kNoOp;
        break;
      }
      ++report_.growths;
      const emulator::Tenant* tenant = mgr_.tenant(it->second);
      model::VirtualEnvironment grown =
          workload::apply_growth(tenant->venv, profile_, ev);
      const auto result = mgr_.grow(it->second, std::move(grown), ev.seed);
      if (result.ok) {
        d.decision = result.used_full_remap ? Decision::kGrownByRemap
                                            : Decision::kGrown;
        d.placement_hash = placement_hash(it->second);
        ++(result.used_full_remap ? report_.grown_by_remap
                                  : report_.grown_in_place);
        emit_txn(TxnKind::kGrowCommit, ev.time, ev.tenant, d.placement_hash);
      } else {
        d.decision = Decision::kGrowthRejected;
        d.error = result.error;
        ++report_.growth_rejected;
        emit_txn(TxnKind::kGrowAbort, ev.time, ev.tenant,
                 static_cast<std::uint64_t>(result.error));
      }
      break;
    }
    case workload::EventKind::kDepart: {
      const auto it = live_.find(ev.tenant);
      if (it != live_.end()) {
        close_degraded_window(ev.tenant, ev.time);
        healer_.forget(ev.tenant);
        mgr_.release(it->second);
        live_.erase(it);
        d.decision = Decision::kDeparted;
        ++departures_;
        freed_capacity = true;
        emit_txn(TxnKind::kReleaseCommit, ev.time, ev.tenant, 0);
      } else if (auto entry = queue_.erase(ev.tenant)) {
        d.decision = Decision::kAbandoned;
        d.queue_wait = ev.time - entry->enqueued_at;
        ++report_.abandoned;
        emit_txn(TxnKind::kQueueAbandon, ev.time, ev.tenant, 0);
      } else if (auto parked = healer_.abandon_parked(ev.tenant)) {
        // Departed while evicted: the whole parked window is lost time.
        d.decision = Decision::kAbandoned;
        d.queue_wait = ev.time - parked->parked_at;
        add_lost(parked->tier(), d.queue_wait);
        ++report_.abandoned;
        emit_txn(TxnKind::kQueueAbandon, ev.time, ev.tenant, 1);
      } else if (const auto lost = lost_since_.find(ev.tenant);
                 lost != lost_since_.end()) {
        add_lost(lost->second.tier, ev.time - lost->second.since);
        lost_since_.erase(lost);
        d.decision = Decision::kNoOp;
      } else {
        d.decision = Decision::kNoOp;
      }
      break;
    }
    case workload::EventKind::kHostFail:
    case workload::EventKind::kLinkFail:
    case workload::EventKind::kHostRecover:
    case workload::EventKind::kLinkRecover:
    case workload::EventKind::kBlastFail:
    case workload::EventKind::kBlastRecover:
    case workload::EventKind::kPowerFail:
    case workload::EventKind::kPowerRecover: {
      d.tenant = ev.element;  // the signature covers *which* element
      recovered = workload::is_recover_event(ev.kind);
      if (recovered) ++report_.recoveries;
      switch (ev.kind) {
        case workload::EventKind::kHostFail:
          d.decision = Decision::kHostFailed;
          ++report_.host_failures;
          break;
        case workload::EventKind::kLinkFail:
          d.decision = Decision::kLinkFailed;
          ++report_.link_failures;
          break;
        case workload::EventKind::kBlastFail:
          d.decision = Decision::kBlastFailed;
          ++report_.blast_failures;
          break;
        case workload::EventKind::kPowerFail:
          d.decision = Decision::kPowerFailed;
          ++report_.power_failures;
          break;
        case workload::EventKind::kHostRecover:
          d.decision = Decision::kHostRecovered;
          break;
        case workload::EventKind::kBlastRecover:
          d.decision = Decision::kBlastRecovered;
          break;
        case workload::EventKind::kPowerRecover:
          d.decision = Decision::kPowerRecovered;
          break;
        default:
          d.decision = Decision::kLinkRecovered;
          break;
      }
      observe_failure_event(ev);
      emit_txn(TxnKind::kFailureApplied, ev.time, ev.element,
               static_cast<std::uint64_t>(ev.kind));
      heals = healer_.on_event(mgr_, live_, ev);
      break;
    }
  }

  d.latency_us = timer.elapsed_us();
  record(d);
  record_heals(heals, ev.time, ev.kind);
  if (freed_capacity) {
    // Capacity just freed: re-heal Degraded tenants and retry the healing
    // queue before the ordinary defrag + admission backfill.
    record_heals(healer_.on_capacity_freed(mgr_, live_, ev.time), ev.time,
                 ev.kind);
    maybe_defrag(ev.time);
    drain_queue(ev.time);
  }
  if (recovered) drain_queue(ev.time);
  run_audit(ev.time);
  sample(ev.time);
  ++event_index_;
  if (observer_ != nullptr) {
    observer_->on_event_end(event_index_ - 1, ev.time, run_fingerprint_);
  }
  return d;
}

const OrchestratorReport& Orchestrator::run(const workload::ChurnTrace& trace) {
  for (const workload::TenantEvent& ev : trace.events) handle(ev);
  return report_;
}

Orchestrator::State Orchestrator::export_state() const {
  State state;
  state.tenancy = mgr_.export_state();
  state.healer = healer_.export_state();
  state.queue = queue_.export_entries();
  state.availability = avail_.snapshot();
  state.live = live_;
  state.degraded_since = degraded_since_;
  state.lost_since = lost_since_;
  state.departures = departures_;
  state.events_handled = event_index_;
  state.run_fingerprint = run_fingerprint_;
  state.report = static_cast<const ReportCounters&>(report_);
  return state;
}

void Orchestrator::restore_state(State state) {
  // GROW and DEPART look a live key's tenant up unchecked, so every key
  // must name a tenant the state holds.
  std::vector<emulator::TenantId> held;
  held.reserve(state.tenancy.tenants.size());
  for (const emulator::Tenant& t : state.tenancy.tenants) {
    held.push_back(t.id);
  }
  std::sort(held.begin(), held.end());
  for (const auto& [key, id] : state.live) {
    if (!std::binary_search(held.begin(), held.end(), id)) {
      throw std::invalid_argument(
          "restored orchestrator state: live key " + std::to_string(key) +
          " names tenant " + std::to_string(id) +
          ", which the state does not hold");
    }
  }
  mgr_.restore_state(std::move(state.tenancy));
  healer_.restore_state(std::move(state.healer));
  queue_.restore_entries(std::move(state.queue));
  avail_.restore(state.availability);
  live_ = std::move(state.live);
  degraded_since_ = std::move(state.degraded_since);
  lost_since_ = std::move(state.lost_since);
  departures_ = state.departures;
  event_index_ = state.events_handled;
  run_fingerprint_ = state.run_fingerprint;
  report_ = {};
  static_cast<ReportCounters&>(report_) = state.report;
}

}  // namespace hmn::orchestrator
