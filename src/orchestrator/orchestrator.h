// The online control plane: an event-driven orchestrator for a
// continuously shared emulation testbed.
//
// The paper's mapper answers one question — "where does this virtual
// environment go?" — for a single tester on an idle cluster.  The
// Orchestrator asks it continuously: it consumes a time-ordered stream of
// tenant events (workload::ChurnGenerator or a recorded trace) against one
// shared cluster and emits a decision per event:
//
//   ARRIVE  admission through the TenancyManager's heuristic pool; a
//           tenant that does not fit is parked in the deferred-retry
//           queue rather than lost;
//   GROW    in-place extension via core::extend_mapping, falling back to
//           a full remap of that tenant when the increment does not fit;
//   DEPART  release, then — capacity just freed — an optional background
//           defragmentation pass (orchestrator::run_defrag) and a drain
//           of the retry queue in FIFO order.
//   *_FAIL / *_RECOVER
//           substrate failures are applied to the shared cluster and
//           handed to the Healer (orchestrator/healer.h): impacted
//           tenants are repaired in place, kept Degraded, or evicted
//           into a backoff healing queue; recoveries re-heal Degraded
//           tenants and re-admit parked ones.  An independent invariant
//           auditor runs after every event.
//
// Every mapping decision is seeded from the event stream, so a recorded
// trace replays to bit-identical decisions and placements; only the
// wall-clock decision latencies differ between runs.  The report carries
// the longitudinal series a capacity planner wants: acceptance rate,
// time-in-queue, utilization-over-time, and decision-latency percentiles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "availability/availability_tracker.h"
#include "core/map_result.h"
#include "emulator/tenancy.h"
#include "extensions/heuristic_pool.h"
#include "orchestrator/defrag.h"
#include "orchestrator/healer.h"
#include "orchestrator/retry_queue.h"
#include "util/fnv1a.h"
#include "workload/churn.h"

namespace hmn::orchestrator {

enum class Decision : std::uint8_t {
  kAdmitted,           // ARRIVE mapped immediately
  kQueued,             // ARRIVE rejected, parked for retry
  kRejected,           // ARRIVE rejected with the queue full
  kAdmittedFromQueue,  // backfill admission after a departure
  kDropped,            // left the queue after exhausting retry attempts
  kAbandoned,          // departed while still queued (never admitted)
  kGrown,              // GROW absorbed in place by extend_mapping
  kGrownByRemap,       // GROW needed a full remap of the tenant
  kGrowthRejected,     // GROW infeasible; tenant keeps its old size
  kDeparted,           // DEPART of a running tenant
  kNoOp,               // event for an unknown/finished tenant

  kHostFailed,     // HOST_FAIL applied to the cluster
  kLinkFailed,     // LINK_FAIL applied to the cluster
  kHostRecovered,  // HOST_RECOVER applied to the cluster
  kLinkRecovered,  // LINK_RECOVER applied to the cluster
  kHealed,         // tenant fully repaired in place
  kDegraded,       // tenant kept with >= 1 dark link
  kRestored,       // previously Degraded tenant fully routed again
  kParked,         // tenant evicted into the healing queue
  kReadmitted,     // parked tenant re-admitted
  kHealDropped,    // healing budget exhausted; tenant lost

  kBlastFailed,     // BLAST_FAIL: a correlated group went dark
  kBlastRecovered,  // BLAST_RECOVER: the group returned to service

  kPowerFailed,      // POWER_FAIL: a power domain went dark
  kPowerRecovered,   // POWER_RECOVER: the repair crew finished the domain
  kReplicaDeferred,  // dead replicas, quorum holds: repair deferred

  kPreempted,  // left the queue after too many backfills jumped it
};

[[nodiscard]] constexpr const char* to_string(Decision d) {
  switch (d) {
    case Decision::kAdmitted: return "admitted";
    case Decision::kQueued: return "queued";
    case Decision::kRejected: return "rejected";
    case Decision::kAdmittedFromQueue: return "admitted-from-queue";
    case Decision::kDropped: return "dropped";
    case Decision::kAbandoned: return "abandoned";
    case Decision::kGrown: return "grown";
    case Decision::kGrownByRemap: return "grown-by-remap";
    case Decision::kGrowthRejected: return "growth-rejected";
    case Decision::kDeparted: return "departed";
    case Decision::kNoOp: return "no-op";
    case Decision::kHostFailed: return "host-failed";
    case Decision::kLinkFailed: return "link-failed";
    case Decision::kHostRecovered: return "host-recovered";
    case Decision::kLinkRecovered: return "link-recovered";
    case Decision::kHealed: return "healed";
    case Decision::kDegraded: return "degraded";
    case Decision::kRestored: return "restored";
    case Decision::kParked: return "parked";
    case Decision::kReadmitted: return "readmitted";
    case Decision::kHealDropped: return "heal-dropped";
    case Decision::kBlastFailed: return "blast-failed";
    case Decision::kBlastRecovered: return "blast-recovered";
    case Decision::kPowerFailed: return "power-failed";
    case Decision::kPowerRecovered: return "power-recovered";
    case Decision::kReplicaDeferred: return "replica-deferred";
    case Decision::kPreempted: return "preempted";
  }
  return "?";
}

/// One decision record.  `placement_hash` fingerprints the admitted/moved
/// tenant's guest placement (FNV-1a over host ids; 0 when no placement
/// resulted) so replay equality checks cover *where* guests landed, not
/// just whether they did.  For failure/recovery events `tenant` carries
/// the failed element id instead of a tenant key.
struct EventDecision {
  double time = 0.0;
  workload::EventKind kind = workload::EventKind::kArrive;
  std::uint32_t tenant = 0;
  Decision decision = Decision::kNoOp;
  core::MapErrorCode error = core::MapErrorCode::kNone;
  double queue_wait = 0.0;    // backfill/abandon/drop: time spent queued
  double latency_us = 0.0;    // wall-clock decision latency (not replayed)
  std::uint64_t placement_hash = 0;
};

/// Cluster state sampled after every event.
struct UtilizationSample {
  double time = 0.0;
  double mem_fraction = 0.0;
  double lbf = 0.0;  // Eq. 10 across all hosts, all tenants
  std::size_t live_tenants = 0;
  std::size_t queued = 0;
};

struct DefragSummary {
  std::size_t passes = 0;      // passes attempted
  std::size_t committed = 0;   // passes that changed the placement
  std::size_t migrations = 0;  // guests moved, total
  double lbf_reduction = 0.0;  // sum of (before - after) over committed
  double total_seconds = 0.0;  // wall clock spent defragmenting
  /// The Migration-stage and global re-route shares of total_seconds.
  /// Wall clock, like total_seconds: checkpoints do not carry them.
  double migration_seconds = 0.0;
  double reroute_seconds = 0.0;
};

/// The report's scalar counters: everything a checkpoint carries of it.
struct ReportCounters {
  DefragSummary defrag;

  std::size_t arrivals = 0;
  std::size_t admitted_immediately = 0;
  std::size_t admitted_from_queue = 0;
  std::size_t rejected = 0;   // queue-full rejections
  std::size_t dropped = 0;    // retry attempts exhausted
  std::size_t preempted = 0;  // passover budget exhausted
  std::size_t abandoned = 0;  // departed while queued
  std::size_t growths = 0;
  std::size_t grown_in_place = 0;
  std::size_t grown_by_remap = 0;
  std::size_t growth_rejected = 0;

  // Failure / healing accounting.
  std::size_t host_failures = 0;
  std::size_t link_failures = 0;
  std::size_t blast_failures = 0;  // correlated groups, counted once each
  std::size_t power_failures = 0;  // power domains, counted once each
  std::size_t recoveries = 0;
  std::size_t healed = 0;          // in-place repairs that fully routed
  std::size_t degraded = 0;        // transitions into Degraded
  std::size_t restored = 0;        // Degraded/Deferred -> whole again
  std::size_t replica_deferred = 0;  // repairs deferred on quorate groups
  std::size_t parked = 0;          // evictions into the healing queue
  std::size_t readmitted = 0;      // parked tenants admitted again
  std::size_t heal_dropped = 0;    // healing budget exhausted
  /// Event time running tenants spent evicted (parked/dropped windows,
  /// closed at re-admission or departure).
  double tenant_minutes_lost = 0.0;
  /// The same loss, attributed to the departed/readmitted tenant's SLA
  /// tier — the series the E17 gate compares across placement policies.
  double tenant_minutes_lost_gold = 0.0;
  double tenant_minutes_lost_standard = 0.0;
  double tenant_minutes_lost_best_effort = 0.0;
  /// Event time tenants spent in the Degraded state.
  double degraded_minutes = 0.0;
};

struct OrchestratorReport : ReportCounters {
  /// One record per decision — the only per-decision series; latencies,
  /// queue waits and heal latencies are read from here.
  std::vector<EventDecision> decisions;
  std::vector<UtilizationSample> timeline;
  /// One message per invariant-auditor violation ("<time>: <what>");
  /// empty on a healthy run.
  std::vector<std::string> invariant_violations;

  /// Fraction of arrivals eventually admitted (immediately or backfilled).
  [[nodiscard]] double acceptance_rate() const;
  /// Mean queue_wait of the kAdmittedFromQueue decisions.
  [[nodiscard]] double mean_queue_wait() const;
  /// Percentile of every decision's latency_us.
  [[nodiscard]] double latency_percentile_us(double p) const;

  /// Canonical string over (time, kind, tenant, decision, error,
  /// placement_hash) of every decision — two runs replayed the same
  /// workload identically iff their signatures match.  Latencies are
  /// deliberately excluded.
  [[nodiscard]] std::string decision_signature() const;
};

/// A heal-dropped tenant's loss window: open from `since` until the
/// tenant's own DEPART, and accrued to its SLA tier then.
struct LostWindow {
  double since = 0.0;
  model::SlaTier tier = model::SlaTier::kStandard;
};

struct OrchestratorOptions {
  /// Run a defrag pass after every k-th departure (0 = never).
  std::size_t defrag_every_departures = 1;
  /// Retry-queue policy (see RetryQueue).
  std::size_t retry_max_attempts = 8;
  std::size_t max_queue = 0;
  /// Preemption budget: abandon a queued tenant (Decision::kPreempted)
  /// once this many backfills have been admitted by drains that failed it
  /// (0 = never preempt).  Bounds the starvation the non-FIFO queue
  /// policies can inflict on a giant that never fits.
  std::size_t retry_max_passovers = 0;
  /// Backfill drain order; every policy is deterministic and every drain
  /// decision is logged, so any choice replays byte-identically.
  QueuePolicy queue_policy = QueuePolicy::kFifo;
  /// Healing policy and backoff (see Healer).
  HealerOptions healer;

  /// Availability-aware admission (ROADMAP: repair-aware admission).  When
  /// true, the orchestrator scales each host's admission weight by the
  /// per-host EWMA availability it tracks from the observed failure
  /// stream, and withholds 10 % of every host's memory/storage from
  /// new-tenant admissions so healing has somewhere to land.  Strictly
  /// invisible until the first failure: the bias is only installed once
  /// the tracker has history, so a failure-free run is byte-identical to
  /// availability_aware = false.
  bool availability_aware = false;
};

/// FNV-1a offset basis — the run fingerprint of an orchestrator that has
/// recorded no decisions yet.
inline constexpr std::uint64_t kFingerprintSeed = util::kFnv1aBasis;

/// State-mutating transaction classes the orchestrator announces to its
/// TxnObserver.  One txn record per committed (or explicitly aborted)
/// mutation, in execution order, between an event's begin/end markers —
/// the write-ahead journal (src/recovery) persists exactly this stream.
enum class TxnKind : std::uint8_t {
  kAdmitCommit = 1,  // arrival admission committed
  kQueuePush,        // rejected arrival parked for retry
  kQueueReject,      // rejected arrival bounced off a full queue
  kGrowCommit,       // growth committed (in place or by remap)
  kGrowAbort,        // growth infeasible; tenant rolled back
  kReleaseCommit,    // running tenant released
  kQueueAbandon,     // queued/parked tenant departed before admission
  kFailureApplied,   // failure/recovery mask flip applied to the cluster
  kHealAction,       // one healer outcome (heal/degrade/park/readmit/...)
  kDefragCommit,     // defrag pass committed a migration batch
  kBackfillCommit,   // retry-queue drain admitted a tenant
  kQueueDrop,        // drain dropped a tenant (attempts exhausted)
  kQueuePreempt,     // drain abandoned a tenant (passovers exhausted)
};

/// One journalable transaction.  `key` is the churn tenant key (or the
/// failed element id for kFailureApplied); `detail` carries the
/// kind-specific payload: placement hash for commits, error/action codes
/// for aborts and heals, migration count for defrag.
struct TxnRecord {
  TxnKind kind = TxnKind::kAdmitCommit;
  double time = 0.0;
  std::uint32_t key = 0;
  std::uint64_t detail = 0;
};

/// Observer of the orchestrator's transaction stream.  The recovery
/// subsystem implements this (recovery::WalManager) to journal every
/// mutation; the orchestrator itself stays recovery-agnostic, which keeps
/// the include graph acyclic (recovery -> orchestrator only).  Callbacks
/// may throw — a crash-injection harness uses exactly that to kill the
/// run at any journaling site — so every callback fires *after* the
/// in-memory mutation it describes: the journal can only ever lag the
/// truth, never lead it, and a torn tail loses decisions, not invariants.
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;
  /// `event_index` is the 0-based position of `ev` in the handled stream.
  virtual void on_event_begin(std::uint64_t event_index,
                              const workload::TenantEvent& ev) = 0;
  virtual void on_txn(const TxnRecord& txn) = 0;
  /// Fired after the event is fully processed (audit + sample included);
  /// `fingerprint` is the running decision fingerprint including every
  /// decision this event produced.
  virtual void on_event_end(std::uint64_t event_index, double time,
                            std::uint64_t fingerprint) = 0;
};

class Orchestrator {
 public:
  /// Uses the default admission pool (HMN, RA fallback).
  Orchestrator(model::PhysicalCluster cluster, workload::GuestProfile profile,
               OrchestratorOptions opts = {});
  Orchestrator(model::PhysicalCluster cluster, workload::GuestProfile profile,
               extensions::HeuristicPool pool, OrchestratorOptions opts = {});

  /// Feeds one event; returns the primary decision.  Secondary decisions a
  /// departure triggers (backfill admissions, drops) are appended to the
  /// report only.  Events must be fed in non-decreasing time order.
  /// Throws std::invalid_argument, before changing any state or notifying
  /// the observer, for an arrive whose key is live, queued or parked.
  EventDecision handle(const workload::TenantEvent& ev);

  /// Convenience: feeds every event of a trace built with this
  /// orchestrator's profile.  One trace per orchestrator — construct a
  /// fresh instance to replay.
  const OrchestratorReport& run(const workload::ChurnTrace& trace);

  [[nodiscard]] const emulator::TenancyManager& tenancy() const {
    return mgr_;
  }
  [[nodiscard]] const Healer& healer() const { return healer_; }
  [[nodiscard]] const OrchestratorReport& report() const { return report_; }
  [[nodiscard]] const availability::AvailabilityTracker& availability() const {
    return avail_;
  }
  [[nodiscard]] const RetryQueue& retry_queue() const { return queue_; }

  /// Installs (or clears, with nullptr) the transaction observer.  Not
  /// owned; must outlive the orchestrator or be cleared first.
  void set_txn_observer(TxnObserver* observer) { observer_ = observer; }

  /// Events handled so far — the index the next event will get.
  [[nodiscard]] std::uint64_t events_handled() const { return event_index_; }

  /// Running FNV-1a chain over the canonical form of every decision
  /// recorded so far (same fields as OrchestratorReport::
  /// decision_signature, which it matches decision-for-decision without
  /// retaining the vector).  Checkpoints persist it and replay continues
  /// it, so a recovered run proves byte-identity with the uninterrupted
  /// run by comparing one u64.
  [[nodiscard]] std::uint64_t run_fingerprint() const {
    return run_fingerprint_;
  }

  /// Checkpoint support (src/recovery): the orchestrator's complete
  /// logical state as plain values.  The report travels as its scalar
  /// counters only — with the decision/timeline vectors a checkpoint
  /// would grow with run length and recovery time would stop being
  /// bounded by the journal tail; a recovered report therefore carries
  /// post-recovery vectors only, while run_fingerprint covers the full
  /// history.
  struct State {
    emulator::TenancyManager::State tenancy;
    Healer::State healer;
    std::vector<PendingTenant> queue;  // retry queue, queue order
    availability::AvailabilityTracker::Snapshot availability;
    std::map<std::uint32_t, emulator::TenantId> live;
    std::map<std::uint32_t, double> degraded_since;
    std::map<std::uint32_t, LostWindow> lost_since;
    std::uint64_t departures = 0;
    std::uint64_t events_handled = 0;
    std::uint64_t run_fingerprint = kFingerprintSeed;
    ReportCounters report;
  };
  [[nodiscard]] State export_state() const;
  /// Restores into an orchestrator constructed with the same cluster,
  /// profile, pool, and options.  Anything currently running is discarded.
  /// Throws std::invalid_argument, before changing anything, if a `live`
  /// key names a tenant the state does not hold, and wherever
  /// TenancyManager::restore_state refuses the tenancy state.
  void restore_state(State state);

 private:
  void observe_failure_event(const workload::TenantEvent& ev);
  void drain_queue(double now);
  void maybe_defrag(double now);
  void sample(double time);
  void emit_txn(TxnKind kind, double time, std::uint32_t key,
                std::uint64_t detail);
  void record(EventDecision decision);
  void record_heals(const std::vector<HealRecord>& records, double now,
                    workload::EventKind kind);
  void close_degraded_window(std::uint32_t key, double now);
  void run_audit(double now);
  [[nodiscard]] std::uint64_t placement_hash(emulator::TenantId id) const;
  /// Accrues lost time to the total and to the tier's bucket.
  void add_lost(model::SlaTier tier, double amount);

  emulator::TenancyManager mgr_;
  workload::GuestProfile profile_;
  OrchestratorOptions opts_;
  RetryQueue queue_;
  Healer healer_;
  availability::AvailabilityTracker avail_;
  std::map<std::uint32_t, emulator::TenantId> live_;  // churn key -> tenant
  std::map<std::uint32_t, double> degraded_since_;    // key -> entry time
  std::map<std::uint32_t, LostWindow> lost_since_;    // heal-dropped key
  std::size_t departures_ = 0;
  std::uint64_t event_index_ = 0;
  std::uint64_t run_fingerprint_ = kFingerprintSeed;
  TxnObserver* observer_ = nullptr;  // not owned
  OrchestratorReport report_;
};

}  // namespace hmn::orchestrator
