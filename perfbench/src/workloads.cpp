#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/hmn_mapper.h"
#include "core/objective.h"
#include "extensions/heuristic_pool.h"
#include "extensions/replica_spread.h"
#include "graph/dijkstra.h"
#include "io/binfmt.h"
#include "multilevel/multilevel_mapper.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/router.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "topology/partition.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/host_generator.h"
#include "workload/power_domains.h"
#include "workload/presets.h"
#include "workload/scenario.h"

#include "host_probe.h"
#include "metrics.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace hmn;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorReport;
using workload::EventKind;
using workload::TenantEvent;

// ---- workload parameters ---------------------------------------------------
//
// Horizon and set-up prefix are in trace time units.  The set-up prefix is
// at least three mean lifetimes, which brings each cluster to steady
// occupancy, and long enough that set-up is real work to time; the horizon
// sets how much work one pass times.  Events after the horizon (the drain
// of the last tenants) are not replayed.

constexpr double kChurnLoad = 1.2;
constexpr double kChurnLifetime = 12.0;
constexpr double kChurnGrow = 0.2;
constexpr double kChurnHorizon = 2400.0;
constexpr double kChurnWarmup = 400.0;

constexpr double kFailstormLoad = 1.0;
constexpr double kFailstormLifetime = 10.0;
constexpr double kFailstormGrow = 0.1;
constexpr double kFailstormHorizon = 8000.0;
constexpr double kFailstormWarmup = 2500.0;
constexpr std::uint32_t kPowerDomains = 4;
constexpr std::uint64_t kCheckpointEvery = 64;
constexpr std::size_t kRecoveryProbes = 40;  // per trace; half of them torn

constexpr double kShardedLoad = 0.8;
constexpr double kShardedLifetime = 12.0;
constexpr double kShardedHorizon = 140.0;
constexpr double kShardedWarmup = 40.0;
constexpr std::size_t kShardedHosts = 1280;
constexpr std::size_t kShards = 4;
constexpr std::size_t kShardThreads = 2;
constexpr std::size_t kMultilevelMinHosts = 256;
constexpr std::size_t kMaxBatch = 16;

// The substrate (cluster or fabric) is the same in every run: a testbed does
// not change between runs, its tenants do.  Only the traces follow --seed,
// so run-to-run spread is not dominated by one random draw of 40 host
// capacities.  The value is the repository's default bench seed.
constexpr std::uint64_t kSubstrateSeed = 20090922;

// A run replays several traces drawn from its seed; tenant traces with
// heavy-tailed lifetimes differ from seed to seed for their whole length,
// so every figure is averaged over several.  Sharded averages one more:
// its admit latency is the wall time of the batch that carried the
// request, so a few large batches set a trace's p99, and across ten seeds
// three traces left that p99 spread by 0.12 while one seed's runs repeated
// it within 3 % (NOTES.md).  Each trace gets a fixed number of passes
// (passes_for): the requested seconds shared among the traces and divided
// by the workload's nominal pass time, a whole pass with its set-up and
// checks at baseline speed.  The count depends on --seconds only, so two
// builds compared at the same --seconds keep the best of the same number of
// passes; on a slower machine the run takes longer instead.
constexpr std::size_t kOrchTraces = 3;
constexpr std::size_t kShardedTraces = 4;
constexpr std::size_t kMinPasses = 2;
constexpr double kChurnPassS = 1.1;
constexpr double kFailstormPassS = 1.1;
constexpr double kShardedPassS = 2.9;

std::size_t passes_for(double seconds, std::size_t traces,
                       double nominal_pass_s) {
  const double n =
      std::round(seconds / static_cast<double>(traces) / nominal_pass_s);
  return std::max(static_cast<std::size_t>(n), kMinPasses);
}

double total_memory(const model::PhysicalCluster& cluster) {
  double total = 0.0;
  for (const NodeId h : cluster.hosts()) total += cluster.capacity(h).mem_mb;
  return total;
}

/// The E12 tenant shape: 4-10 host-scale guests at density 0.2, Pareto
/// lifetimes, arrival rate set by the offered memory load (Little's law).
workload::ChurnOptions tenant_shape(const model::PhysicalCluster& cluster,
                                    double load, double horizon,
                                    double mean_lifetime,
                                    double grow_probability) {
  workload::ChurnOptions o;
  o.horizon = horizon;
  o.mean_lifetime = mean_lifetime;
  o.lifetime = workload::LifetimeDistribution::kPareto;
  o.min_guests = 4;
  o.max_guests = 10;
  o.density = 0.2;
  o.profile = workload::high_level_profile();
  o.profile.mem_mb = {512.0, 1536.0};
  o.grow_probability = grow_probability;
  o.max_grow_guests = 3;
  const double mean_guests =
      0.5 * static_cast<double>(o.min_guests + o.max_guests);
  const double mean_tenant_mem =
      mean_guests * 0.5 * (o.profile.mem_mb.lo + o.profile.mem_mb.hi);
  o.arrival_rate =
      load * total_memory(cluster) / (mean_lifetime * mean_tenant_mem);
  return o;
}

/// Drops the events at or after the horizon.
void cut_at(std::vector<TenantEvent>& events, double horizon) {
  const auto end = std::partition_point(
      events.begin(), events.end(),
      [&](const TenantEvent& e) { return e.time < horizon; });
  events.erase(end, events.end());
}

std::size_t first_at(const std::vector<TenantEvent>& events, double t) {
  return static_cast<std::size_t>(
      std::partition_point(events.begin(), events.end(),
                           [&](const TenantEvent& e) { return e.time < t; }) -
      events.begin());
}

/// Peak resident set of this program: VmHWM, the high-water mark of the
/// process image since exec.  getrusage's ru_maxrss is only the fallback,
/// because it also keeps the peak of the image before exec: started from
/// Python, it reads Python's resident set (about 13 MB) whenever this
/// program stays below that.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-3;
}

void log_percentile(const char* name, const Percentile& p, double q) {
  std::printf("  %-16s p%-4g over %zu samples (%zu beyond)%s\n", name, q,
              p.samples, p.beyond, p.resolved() ? "" : "  UNRESOLVED");
}

// ---- timing of passes ------------------------------------------------------
//
// Machine speed on a shared host drifts in phases: some last seconds, some
// tens of minutes.  Two defences, one per kind:
//  - A run times several passes over each trace and keeps, for every timing
//    metric, the trace's best pass: the highest throughput, the lowest
//    latency percentile and the lowest set-up time.  That filters out the
//    phases shorter than a run.
//  - The host probe runs before the first pass and after every pass.  Its
//    best time in the run, against HostProbe::kReferenceSeconds, is the
//    run's slowdown, and the run's timings are scaled by it.  That takes
//    out most of a phase that covers the whole run.  Over seconds, probe
//    and pass times move independently (correlation -0.14 over 18 passes),
//    so single probes would only add noise; best against best compares the
//    same thing, the least disturbed moments of the run.
// Each pass carries enough samples for its own percentiles.

struct Samples {
  std::vector<double> admit_us;  // ARRIVE, or every request of a batch
  std::vector<double> event_us;  // every event
  std::vector<double> heal_us;   // *_FAIL
};

struct PassTiming {
  double setup_s = 0.0;
  double events_per_s = 0.0;
  Percentile admit50;
  Percentile admit99;
  Percentile event99;
  Percentile heal50;
  Percentile heal99;
};

PassTiming timing_of(double setup_s, std::size_t timed_events, double timed_s,
                     const Samples& s) {
  PassTiming t;
  t.setup_s = setup_s;
  t.events_per_s = static_cast<double>(timed_events) / timed_s;
  t.admit50 = percentile(s.admit_us, 50.0);
  t.admit99 = percentile(s.admit_us, 99.0);
  t.event99 = percentile(s.event_us, 99.0);
  t.heal50 = percentile(s.heal_us, 50.0);
  t.heal99 = percentile(s.heal_us, 99.0);
  return t;
}

/// The timings on a host `slowdown` times faster.
PassTiming scaled(PassTiming t, double slowdown) {
  t.setup_s /= slowdown;
  t.events_per_s *= slowdown;
  for (Percentile* p : {&t.admit50, &t.admit99, &t.event99, &t.heal50,
                        &t.heal99}) {
    p->value /= slowdown;
  }
  return t;
}

/// The run's slowdown against the reference host: its best probe time over
/// the reference time.
double slowdown_of(const std::vector<double>& probe_s) {
  const double best = *std::min_element(probe_s.begin(), probe_s.end());
  std::printf("  host probe: best %.2f ms of %zu, slowdown %.4f\n",
              best * 1e3, probe_s.size(), best / HostProbe::kReferenceSeconds);
  return best / HostProbe::kReferenceSeconds;
}

using Values = std::map<std::string, double>;

/// One pass: its timing and, when traced, its per-layer values and spans.
struct Pass {
  PassTiming timing;
  Values layers;
  std::unique_ptr<SpanRecorder> spans;
};

/// What a trace keeps of its passes: every timing metric's best value, and
/// the per-layer values and spans of the pass with the highest throughput.
struct BestPass {
  std::size_t passes = 0;
  PassTiming timing;
  Values layers;
  std::unique_ptr<SpanRecorder> spans;
  std::vector<double> probe_s;  // host probe before the first pass and after
                                // each

  void add(Pass p) {
    const PassTiming& t = p.timing;
    std::printf("  pass %zu: set-up %.4f s, %.1f events/s, admit p50 %.1f "
                "p99 %.1f us, event p99 %.1f us; probe %.2f ms\n",
                passes, t.setup_s, t.events_per_s, t.admit50.value,
                t.admit99.value, t.event99.value, probe_s.back() * 1e3);
    if (passes++ == 0 || t.events_per_s > timing.events_per_s) {
      layers = std::move(p.layers);
      spans = std::move(p.spans);
    }
    if (passes == 1) {
      timing = t;
      return;
    }
    timing.setup_s = std::min(timing.setup_s, t.setup_s);
    timing.events_per_s = std::max(timing.events_per_s, t.events_per_s);
    keep_lower(timing.admit50, t.admit50);
    keep_lower(timing.admit99, t.admit99);
    keep_lower(timing.event99, t.event99);
    keep_lower(timing.heal50, t.heal50);
    keep_lower(timing.heal99, t.heal99);
  }

 private:
  static void keep_lower(Percentile& kept, const Percentile& p) {
    if (p.value < kept.value) kept = p;
  }
};

/// Runs `passes` passes of one trace, with the host probe before the first
/// and after each; `pass(i)` runs pass i and returns it.  Traced and
/// untraced passes alike go through here.
template <typename RunPass>
BestPass best_of(std::size_t passes, HostProbe& probe, RunPass&& pass) {
  BestPass best;
  best.probe_s.push_back(probe.seconds());
  for (std::size_t i = 0; i < passes; ++i) {
    Pass p = pass(i);
    best.probe_s.push_back(probe.seconds());
    best.add(std::move(p));
  }
  return best;
}

/// The mean over traces of each trace's best pass; sample counts are the
/// smallest any trace had.
PassTiming mean_of(const std::vector<PassTiming>& traces) {
  PassTiming m;
  const double n = static_cast<double>(traces.size());
  auto mean_pct = [&](Percentile PassTiming::*field) {
    Percentile out = traces.front().*field;
    double sum = 0.0;
    for (const PassTiming& t : traces) {
      const Percentile& p = t.*field;
      sum += p.value;
      if (p.beyond < out.beyond) out = p;
    }
    out.value = sum / n;
    return out;
  };
  for (const PassTiming& t : traces) {
    m.setup_s += t.setup_s / n;
    m.events_per_s += t.events_per_s / n;
  }
  m.admit50 = mean_pct(&PassTiming::admit50);
  m.admit99 = mean_pct(&PassTiming::admit99);
  m.event99 = mean_pct(&PassTiming::event99);
  m.heal50 = mean_pct(&PassTiming::heal50);
  m.heal99 = mean_pct(&PassTiming::heal99);
  return m;
}

void log_samples(const PassTiming& t, std::size_t traces, std::size_t passes,
                 bool heal) {
  std::printf("  mean of %zu traces' best of %zu passes; samples per pass:\n",
              traces, passes);
  log_percentile("admit_p50_us", t.admit50, 50.0);
  log_percentile("admit_p99_us", t.admit99, 99.0);
  log_percentile("event_p99_us", t.event99, 99.0);
  if (heal) {
    log_percentile("heal_p50_us", t.heal50, 50.0);
    log_percentile("heal_p99_us", t.heal99, 99.0);
  }
}

std::vector<Metric> end_to_end_metrics(const PassTiming& t, double accepted,
                                       double lbf_mean) {
  return {
      {"setup_s", t.setup_s, "s"},
      {"events_per_s", t.events_per_s, "1/s"},
      {"admit_p50_us", t.admit50.value, "us"},
      {"admit_p99_us", t.admit99.value, "us"},
      {"event_p99_us", t.event99.value, "us"},
      {"acceptance", accepted, "fraction"},
      {"lbf_mean", lbf_mean, "MIPS"},
      {"rss_peak_mb", peak_rss_mb(), "MB"},
  };
}

// ---- per-layer metric names ------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"orchestrator.handle.s", "s"},
    {"orchestrator.handle.self_s", "s"},
    {"orchestrator.handle.tail_s", "s"},
    {"orchestrator.defrag.s", "s"},
    {"orchestrator.defrag.passes", "count"},
    {"orchestrator.defrag.migrations", "count"},
    {"orchestrator.queue.attempts", "count"},
    {"orchestrator.queue.backfills", "count"},
    {"orchestrator.queue.yield", "fraction"},
    {"orchestrator.healer.s", "s"},
    {"orchestrator.healer.actions", "count"},
    {"orchestrator.router.batch_s", "s"},
    {"orchestrator.router.inlock_s", "s"},
    {"orchestrator.router.attempts_per_request", "count"},
    {"orchestrator.router.first_probe_ratio", "fraction"},
    {"orchestrator.router.headroom_spread", "MIPS"},
    {"extensions.pool.fallback_ratio", "fraction"},
    {"extensions.spread.s", "s"},
    {"baselines.ra.calls", "count"},
    {"baselines.ra.s", "s"},
    {"baselines.ra.yield", "fraction"},
    {"core.hmn.calls", "count"},
    {"core.hmn.fail_ratio", "fraction"},
    {"core.hmn.hosting_s", "s"},
    {"core.hmn.migration_s", "s"},
    {"core.hmn.networking_s", "s"},
    {"core.hmn.links_routed", "count"},
    {"multilevel.mapper.s", "s"},
    {"multilevel.flat_fallback_ratio", "fraction"},
    {"recovery.wal.append_s", "s"},
    {"recovery.wal.checkpoint_s", "s"},
    {"recovery.wal.checkpoints", "count"},
    {"recovery.wal.checkpoint_bytes_last", "B"},
    {"recovery.wal.bytes", "B"},
    {"recovery.recover.scan_s", "s"},
    {"recovery.recover.replay_s", "s"},
    {"recovery.recover.replayed_events", "count"},
    {"topology.partition.s", "s"},
    {"heal_p50_us", "us"},
    {"heal_p99_us", "us"},
    {"recover_p50_ms", "ms"},
    {"recover_p90_ms", "ms"},
    {"tenant_min_lost", "time"},
    {"journal_bytes_per_event", "B"},
    {"trace.overhead_events_per_s", "1/s"},
    {"host.slowdown", "ratio"},
};

std::vector<Metric> layer_metrics(const Values& values) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    out.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
  return out;
}

struct MapperTotals {
  double calls = 0.0;
  double failed = 0.0;
  double seconds = 0.0;
  double hosting_s = 0.0;
  double migration_s = 0.0;
  double networking_s = 0.0;
  double links = 0.0;

  void add(const Span& s) {
    calls += 1.0;
    if (!s.ok) failed += 1.0;
    seconds += seconds_between(s.start_ns, s.end_ns);
    add_stages(s);
  }
  void add_stages(const Span& s) {
    hosting_s += s.stats.hosting_seconds;
    migration_s += s.stats.migration_seconds;
    networking_s += s.stats.networking_seconds;
    links += static_cast<double>(s.stats.links_routed);
  }
};

void put_hmn(Values& v, const MapperTotals& hmn, const MapperTotals& stages) {
  v["core.hmn.calls"] = hmn.calls;
  v["core.hmn.fail_ratio"] = ratio(hmn.failed, hmn.calls);
  v["core.hmn.hosting_s"] = stages.hosting_s;
  v["core.hmn.migration_s"] = stages.migration_s;
  v["core.hmn.networking_s"] = stages.networking_s;
  v["core.hmn.links_routed"] = stages.links;
}

// ---- orchestrator workloads (churn, failstorm) -----------------------------

struct OrchInput {
  Workload workload = Workload::kChurn;
  model::PhysicalCluster cluster;
  workload::ChurnTrace trace;
  std::size_t warmup = 0;  // events [0, warmup) are set-up
};

/// E15/E17's racked fabric: 40 Table-1 hosts under four leaf switches,
/// with power domains striped across the racks.
model::PhysicalCluster racked_cluster(std::uint64_t seed) {
  util::Rng rng(seed);
  auto caps = workload::generate_hosts(40, workload::paper_host_profile(), rng);
  auto cluster = model::PhysicalCluster::build(
      topology::switch_tree(40, 10, 4), std::move(caps),
      workload::paper_link_props());
  workload::annotate_failure_domains(cluster, kPowerDomains);
  return cluster;
}

OrchInput make_orch_input(Workload w, std::uint64_t seed, std::uint64_t k) {
  OrchInput in;
  in.workload = w;
  double horizon = 0.0;
  double warmup = 0.0;
  if (w == Workload::kChurn) {
    horizon = kChurnHorizon;
    warmup = kChurnWarmup;
    in.cluster = workload::make_paper_cluster(
        workload::ClusterKind::kSwitched, util::derive_seed(kSubstrateSeed, 1));
    in.trace = workload::generate_churn(
        tenant_shape(in.cluster, kChurnLoad, horizon, kChurnLifetime,
                     kChurnGrow),
        util::derive_seed(seed, 2, k));
  } else {
    horizon = kFailstormHorizon;
    warmup = kFailstormWarmup;
    in.cluster = racked_cluster(util::derive_seed(kSubstrateSeed, 2));
    workload::ChurnOptions copts =
        tenant_shape(in.cluster, kFailstormLoad, horizon, kFailstormLifetime,
                     kFailstormGrow);
    copts.replica_probability = 0.5;
    copts.replica_n = 3;
    copts.replica_k = 2;
    copts.gold_fraction = 0.3;
    copts.best_effort_fraction = 0.2;
    in.trace = workload::generate_churn(copts, util::derive_seed(seed, 2, k));
    workload::FailureOptions fo;
    fo.horizon = horizon;
    fo.host_mttf = 200.0;
    fo.host_mttr = 4.0;
    fo.link_mttf = 300.0;
    fo.link_mttr = 4.0;
    fo.blast_mttf = 40.0;
    fo.blast_mttr = 5.0;
    fo.power_mttf = 60.0;
    fo.power_mttr = 6.0;
    fo.power_domains = kPowerDomains;
    workload::merge_events(
        in.trace, workload::generate_failures(fo, in.cluster,
                                              util::derive_seed(seed, 3, k)));
  }
  cut_at(in.trace.events, horizon);
  in.warmup = first_at(in.trace.events, warmup);
  return in;
}

orchestrator::OrchestratorOptions orch_options(Workload w) {
  orchestrator::OrchestratorOptions o;  // defrag after every departure,
                                        // FIFO queue, audit on
  if (w == Workload::kFailstorm) {
    o.availability_aware = true;
    o.healer.tier_aware = true;
    o.queue_policy = orchestrator::QueuePolicy::kSmallestFirst;
    o.retry_max_attempts = 4;
    o.retry_max_passovers = 3;
  }
  return o;
}

core::MapperPtr timed(core::MapperPtr inner, Layer layer, SpanRecorder& rec) {
  return std::make_unique<TimedMapper>(std::move(inner), layer, rec);
}

/// The workload's admission pool; with a recorder, every entry (and the
/// HMN inside the replica-spread wrapper) is decorated.
extensions::HeuristicPool make_pool(Workload w, SpanRecorder* rec) {
  if (w == Workload::kChurn) {
    extensions::HeuristicPool plain = extensions::default_pool();
    if (rec == nullptr) return plain;
    extensions::HeuristicPool pool;
    std::vector<core::MapperPtr> entries = plain.release();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      pool.add(timed(std::move(entries[i]), i == 0 ? Layer::kHmn : Layer::kRa,
                     *rec));
    }
    return pool;
  }
  extensions::HeuristicPool pool;
  if (rec == nullptr) {
    pool.add(std::make_unique<core::HmnMapper>());
    return extensions::replica_aware(std::move(pool));
  }
  pool.add(timed(std::make_unique<extensions::ReplicaSpreadMapper>(
                     timed(std::make_unique<core::HmnMapper>(), Layer::kHmn,
                           *rec)),
                 Layer::kSpread, *rec));
  return pool;
}

/// One system under test: the orchestrator, its journal (failstorm) and,
/// in the traced run, the forwarding observer in front of the journal.
struct OrchSystem {
  OrchSystem(const OrchInput& in, SpanRecorder* rec)
      : orch(in.cluster, in.trace.profile, make_pool(in.workload, rec),
             orch_options(in.workload)) {
    if (in.workload == Workload::kFailstorm) {
      // Capacity for the whole run up front: the journal never reallocates,
      // so peak memory follows its size instead of its doubling steps.
      journal.reserve(in.trace.events.size() * 8192);
      wal = std::make_unique<recovery::WalManager>(
          orch, journal, recovery::WalOptions{kCheckpointEvery});
    }
    if (rec != nullptr) {
      tracer = std::make_unique<TracingObserver>(
          *rec, orch, wal.get(), wal != nullptr ? &journal : nullptr,
          wal != nullptr ? kCheckpointEvery : 0);
      orch.set_txn_observer(tracer.get());
    }
  }

  Orchestrator orch;
  std::string journal;
  std::unique_ptr<recovery::WalManager> wal;
  std::unique_ptr<TracingObserver> tracer;
};

/// Report counters a pass reads at the end of set-up and at the end.
struct Counters {
  std::size_t arrivals = 0;
  std::size_t admitted_immediately = 0;
  std::size_t admitted_from_queue = 0;
  std::size_t heal_actions = 0;
  double tenant_minutes_lost = 0.0;
  orchestrator::DefragSummary defrag;

  static Counters of(const OrchestratorReport& r) {
    Counters c;
    c.arrivals = r.arrivals;
    c.admitted_immediately = r.admitted_immediately;
    c.admitted_from_queue = r.admitted_from_queue;
    c.heal_actions =
        r.healed + r.degraded + r.parked + r.readmitted + r.heal_dropped;
    c.tenant_minutes_lost = r.tenant_minutes_lost;
    c.defrag = r.defrag;
    return c;
  }
};

struct OrchPass {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::size_t timed_events = 0;
  std::uint64_t fingerprint = 0;
  Counters at_warmup;
  Counters at_end;
  std::size_t live_at_warmup = 0;  // running tenants, for the occupancy log
  std::size_t live_at_end = 0;
  double lbf_mean = 0.0;
  std::vector<std::string> violations;
  std::unique_ptr<OrchSystem> system;     // kept for probes and the report
  std::vector<std::uint64_t> fingerprints;  // [i] after i events
};

void handle(Orchestrator& orch, const TenantEvent& ev, std::size_t index,
            SpanRecorder* rec) {
  if (rec == nullptr) {
    orch.handle(ev);
    return;
  }
  rec->set_event(index);
  const SpanScope span(rec, Layer::kHandle, /*root=*/true);
  orch.handle(ev);
}

OrchPass orch_pass(const OrchInput& in, SpanRecorder* rec, Samples* samples) {
  const std::vector<TenantEvent>& events = in.trace.events;
  OrchPass p;
  p.fingerprints.reserve(events.size() + 1);
  p.fingerprints.push_back(orchestrator::kFingerprintSeed);

  const std::int64_t t0 = now_ns();
  p.system = std::make_unique<OrchSystem>(in, rec);
  Orchestrator& orch = p.system->orch;
  for (std::size_t i = 0; i < in.warmup; ++i) {
    handle(orch, events[i], i, rec);
    p.fingerprints.push_back(orch.run_fingerprint());
  }
  const std::int64_t t1 = now_ns();
  p.at_warmup = Counters::of(orch.report());
  p.live_at_warmup = orch.tenancy().tenant_count();

  for (std::size_t i = in.warmup; i < events.size(); ++i) {
    const TenantEvent& ev = events[i];
    const std::int64_t a = now_ns();
    handle(orch, ev, i, rec);
    const std::int64_t b = now_ns();
    p.fingerprints.push_back(orch.run_fingerprint());
    if (samples != nullptr) {
      const double us = us_between(a, b);
      samples->event_us.push_back(us);
      if (ev.kind == EventKind::kArrive) samples->admit_us.push_back(us);
      if (workload::is_failure_event(ev.kind) &&
          !workload::is_recover_event(ev.kind)) {
        samples->heal_us.push_back(us);
      }
    }
  }
  const std::int64_t t2 = now_ns();

  const OrchestratorReport& report = orch.report();
  p.setup_s = seconds_between(t0, t1);
  p.timed_s = seconds_between(t1, t2);
  p.timed_events = events.size() - in.warmup;
  p.fingerprint = orch.run_fingerprint();
  p.live_at_end = orch.tenancy().tenant_count();
  p.at_end = Counters::of(report);
  p.violations = report.invariant_violations;
  std::vector<double> times;
  std::vector<double> lbf;
  for (std::size_t i = in.warmup; i < report.timeline.size(); ++i) {
    times.push_back(report.timeline[i].time);
    lbf.push_back(report.timeline[i].lbf);
  }
  p.lbf_mean = time_weighted_mean(times, lbf);
  return p;
}

struct ProbeResult {
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<double> recover_ms;
  std::vector<double> scan_s;
  std::vector<double> replay_s;
  double replayed_events = 0.0;  // summed over probes

  void merge(const ProbeResult& o) {
    attempted += o.attempted;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
    recover_ms.insert(recover_ms.end(), o.recover_ms.begin(),
                      o.recover_ms.end());
    scan_s.insert(scan_s.end(), o.scan_s.begin(), o.scan_s.end());
    replay_s.insert(replay_s.end(), o.replay_s.begin(), o.replay_s.end());
    replayed_events += o.replayed_events;
  }
};

/// Cuts the journal at sampled record boundaries and inside sampled frames
/// and recovers a fresh orchestrator from each prefix.  Every probe must
/// land on the uninterrupted run's fingerprint at its recovered event, and
/// every cut inside a frame must be accepted as a torn tail.  With
/// `split_scan`, a second loop times parse_journal() alone on the same
/// prefixes.  It runs after all recoveries, so each recover() call is timed
/// the same way in traced and untraced runs: after another prefix's work,
/// never right after a scan of its own prefix.
ProbeResult recovery_probes(const OrchInput& in, const OrchPass& pass,
                            std::uint64_t seed, std::size_t probes,
                            bool split_scan) {
  ProbeResult out;
  const std::string& journal = pass.system->journal;
  io::FrameScan scan;
  if (const auto err = io::scan_frames(journal, scan)) {
    out.failures.push_back("journal scan: " + err->message);
    return out;
  }
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // offset, size
  for (const std::string_view f : scan.frames) {
    const auto payload = static_cast<std::size_t>(f.data() - journal.data());
    frames.emplace_back(payload - 8, f.size() + 8);
  }
  if (frames.empty()) {
    out.failures.push_back("journal is empty");
    return out;
  }
  util::Rng rng(seed);
  std::vector<std::size_t> cuts;
  std::vector<double> recover_s;
  for (std::size_t k = 0; k < probes; ++k) {
    const bool torn = k % 2 == 1;
    const auto [offset, size] = frames[rng.index(frames.size())];
    const std::size_t cut =
        torn ? offset + 1 + rng.index(size - 1) : offset + size;
    const std::string_view prefix(journal.data(), cut);
    ++out.attempted;
    try {
      Orchestrator fresh(in.cluster, in.trace.profile,
                         make_pool(in.workload, nullptr),
                         orch_options(in.workload));
      const std::int64_t r0 = now_ns();
      const recovery::RecoveredRun run = recovery::recover(fresh, prefix);
      const std::int64_t r1 = now_ns();
      out.recover_ms.push_back(static_cast<double>(r1 - r0) * 1e-6);
      cuts.push_back(cut);
      recover_s.push_back(seconds_between(r0, r1));
      out.replayed_events += static_cast<double>(run.replayed_events);
      if (run.torn_tail != torn) {
        throw std::runtime_error(torn ? "torn cut not reported as torn"
                                      : "clean cut reported as torn");
      }
      if (run.next_event_index >= pass.fingerprints.size() ||
          fresh.run_fingerprint() != pass.fingerprints[run.next_event_index]) {
        throw std::runtime_error("fingerprint differs at recovered event " +
                                 std::to_string(run.next_event_index));
      }
    } catch (const std::exception& e) {
      out.failures.push_back("recovery probe at byte " + std::to_string(cut) +
                             ": " + e.what());
    }
  }
  if (!split_scan) return out;
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const std::int64_t s0 = now_ns();
    (void)recovery::parse_journal(std::string_view(journal.data(), cuts[k]));
    const double scan_s = seconds_between(s0, now_ns());
    out.scan_s.push_back(scan_s);
    out.replay_s.push_back(std::max(0.0, recover_s[k] - scan_s));
  }
  return out;
}

bool is_pool_call_drain(EventKind k) {
  return k == EventKind::kDepart || workload::is_recover_event(k);
}

/// Per-layer values of one traced orchestrator pass.
Values orch_layers(const OrchInput& in, const OrchPass& pass,
                   const SpanRecorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = rec.self_seconds();
  // Time each span spends in direct children that are mapper or journal
  // calls: the healer's share of a failure event is what remains.
  std::vector<double> mapper_wal(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    switch (s.layer) {
      case Layer::kHmn:
      case Layer::kRa:
      case Layer::kSpread:
      case Layer::kWalAppend:
      case Layer::kWalCheckpoint:
        mapper_wal[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start_ns, s.end_ns);
        break;
      default:
        break;
    }
  }
  const Layer first_entry =
      in.workload == Workload::kChurn ? Layer::kHmn : Layer::kSpread;
  Values v;
  MapperTotals hmn;
  MapperTotals ra;
  double pool_calls = 0.0;
  double drain_calls = 0.0;
  double checkpoint_bytes_last = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.event < in.warmup) continue;
    const EventKind kind = in.trace.events[s.event].kind;
    const double dur = seconds_between(s.start_ns, s.end_ns);
    switch (s.layer) {
      case Layer::kHandle:
        v["orchestrator.handle.s"] += dur;
        v["orchestrator.handle.self_s"] += self[i];
        if (workload::is_failure_event(kind)) {
          v["orchestrator.healer.s"] += dur - mapper_wal[i];
        }
        break;
      case Layer::kTail:
        v["orchestrator.handle.tail_s"] += dur;
        break;
      case Layer::kHmn:
        hmn.add(s);
        break;
      case Layer::kRa:
        ra.add(s);
        break;
      case Layer::kSpread:
        v["extensions.spread.s"] += self[i];
        break;
      case Layer::kWalAppend:
        v["recovery.wal.append_s"] += dur;
        v["recovery.wal.bytes"] += static_cast<double>(s.bytes);
        break;
      case Layer::kWalCheckpoint:
        v["recovery.wal.checkpoint_s"] += dur;
        v["recovery.wal.checkpoints"] += 1.0;
        v["recovery.wal.bytes"] += static_cast<double>(s.bytes);
        checkpoint_bytes_last = static_cast<double>(s.bytes);
        break;
      default:
        break;
    }
    if (s.layer == first_entry) {
      pool_calls += 1.0;
      if (is_pool_call_drain(kind)) drain_calls += 1.0;
    }
  }
  put_hmn(v, hmn, hmn);
  v["baselines.ra.calls"] = ra.calls;
  v["baselines.ra.s"] = ra.seconds;
  v["baselines.ra.yield"] = ratio(ra.calls - ra.failed, ra.calls);
  v["extensions.pool.fallback_ratio"] =
      in.workload == Workload::kChurn ? ratio(ra.calls, pool_calls) : 0.0;
  v["recovery.wal.checkpoint_bytes_last"] = checkpoint_bytes_last;

  const Counters& a = pass.at_warmup;
  const Counters& b = pass.at_end;
  v["orchestrator.defrag.s"] = b.defrag.total_seconds - a.defrag.total_seconds;
  v["orchestrator.defrag.passes"] =
      static_cast<double>(b.defrag.passes - a.defrag.passes);
  v["orchestrator.defrag.migrations"] =
      static_cast<double>(b.defrag.migrations - a.defrag.migrations);
  const double backfills =
      static_cast<double>(b.admitted_from_queue - a.admitted_from_queue);
  v["orchestrator.queue.attempts"] = drain_calls;
  v["orchestrator.queue.backfills"] = backfills;
  v["orchestrator.queue.yield"] = ratio(backfills, drain_calls);
  v["orchestrator.healer.actions"] =
      static_cast<double>(b.heal_actions - a.heal_actions);
  return v;
}

/// Checkpoint size against run position, for the notes.
void log_checkpoints(const SpanRecorder& rec) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cps;
  for (const Span& s : rec.spans()) {
    if (s.layer == Layer::kWalCheckpoint) cps.emplace_back(s.event, s.bytes);
  }
  if (cps.empty()) return;
  std::printf("  checkpoint bytes by event:");
  const std::size_t step = std::max<std::size_t>(1, cps.size() / 8);
  for (std::size_t i = 0; i < cps.size(); i += step) {
    std::printf(" %llu:%llu", static_cast<unsigned long long>(cps[i].first),
                static_cast<unsigned long long>(cps[i].second));
  }
  std::printf(" %llu:%llu\n",
              static_cast<unsigned long long>(cps.back().first),
              static_cast<unsigned long long>(cps.back().second));
}

void note_failures(RunResult& res, const std::vector<std::string>& lines,
                   const char* what) {
  res.failed += lines.size();
  for (std::size_t i = 0; i < lines.size() && i < 5; ++i) {
    res.failures.push_back(std::string(what) + ": " + lines[i]);
  }
}

/// The passes of a trace all carry the same sample counts; too few for a
/// percentile's ten-beyond rule is a benchmark error.
void note_unresolved(RunResult& res, const PassTiming& t, bool heal) {
  std::vector<const Percentile*> used = {&t.admit50, &t.admit99, &t.event99};
  if (heal) {
    used.push_back(&t.heal50);
    used.push_back(&t.heal99);
  }
  for (const Percentile* p : used) {
    if (!p->resolved()) note_failures(res, {"too few samples"}, "percentile");
  }
}

void write_spans(const RunOptions& opts, const SpanRecorder& rec) {
  if (opts.span_dir.empty()) return;
  const auto path = opts.span_dir / (std::string(to_string(opts.workload)) +
                                     "-" + std::to_string(opts.seed) + ".tsv");
  rec.write_tsv(path);
  std::printf("  spans of the fastest traced pass: %s\n", path.c_str());
}

void run_orchestrator(const RunOptions& opts, RunResult& res) {
  const bool failstorm = opts.workload == Workload::kFailstorm;
  const std::size_t passes = passes_for(
      opts.seconds, kOrchTraces, failstorm ? kFailstormPassS : kChurnPassS);
  std::vector<OrchInput> inputs;
  inputs.reserve(kOrchTraces);  // `in` below refers into it
  std::vector<std::uint64_t> fingerprints;  // per trace, untraced
  std::vector<PassTiming> timings;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t journal_bytes = 0;
  std::size_t replayed = 0;
  double lbf_sum = 0.0;
  double lost_sum = 0.0;
  ProbeResult probes;
  HostProbe probe;
  std::vector<double> probe_s;  // host probe times around untraced passes
  for (std::size_t k = 0; k < kOrchTraces; ++k) {
    inputs.push_back(make_orch_input(opts.workload, opts.seed, k));
    const OrchInput& in = inputs.back();
    const auto& events = in.trace.events;
    std::printf("%s trace %zu: %zu events (%zu set-up, %zu timed), cluster "
                "%zu hosts, %zu passes\n",
                to_string(opts.workload), k, events.size(), in.warmup,
                events.size() - in.warmup, in.cluster.host_count(), passes);
    OrchPass last;
    BestPass best = best_of(passes, probe, [&](std::size_t i) {
      Samples samples;
      last = OrchPass{};  // release the previous system first
      last = orch_pass(in, nullptr, &samples);
      res.attempted += events.size();
      note_failures(res, last.violations, "invariant violation");
      if (i == 0) {
        fingerprints.push_back(last.fingerprint);
        std::printf("  running tenants: %zu after set-up, %zu at the end\n",
                    last.live_at_warmup, last.live_at_end);
      } else if (last.fingerprint != fingerprints.back()) {
        note_failures(res, {"trace " + std::to_string(k) + " pass " +
                            std::to_string(i) +
                            " fingerprint differs from its first pass"},
                      "replay");
      }
      return Pass{timing_of(last.setup_s, last.timed_events, last.timed_s,
                            samples),
                  {}, nullptr};
    });
    timings.push_back(best.timing);
    probe_s.insert(probe_s.end(), best.probe_s.begin(), best.probe_s.end());
    const Counters& a = last.at_warmup;
    const Counters& b = last.at_end;
    arrivals += b.arrivals - a.arrivals;
    admitted += (b.admitted_immediately - a.admitted_immediately) +
                (b.admitted_from_queue - a.admitted_from_queue);
    lbf_sum += last.lbf_mean;
    lost_sum += b.tenant_minutes_lost - a.tenant_minutes_lost;
    replayed += events.size();
    if (failstorm) {
      journal_bytes += last.system->journal.size();
      probes.merge(recovery_probes(in, last, util::derive_seed(opts.seed, 5, k),
                                   kRecoveryProbes, opts.trace));
    }
  }
  const double slowdown = slowdown_of(probe_s);
  const PassTiming timing = scaled(mean_of(timings), slowdown);
  log_samples(timing, kOrchTraces, passes, failstorm);
  note_unresolved(res, timing, failstorm);
  const double traces = static_cast<double>(kOrchTraces);
  res.end_to_end = end_to_end_metrics(timing, acceptance(admitted, 0, arrivals),
                                      lbf_sum / traces);

  // Failure- and journal-side figures: failstorm only, reported with the
  // per-layer metrics (zero elsewhere).
  Values extra;
  extra["host.slowdown"] = slowdown;
  if (failstorm) {
    res.attempted += probes.attempted;
    note_failures(res, probes.failures, "recovery");
    const Percentile rec50 = percentile(probes.recover_ms, 50.0);
    const Percentile rec90 = percentile(probes.recover_ms, 90.0);
    log_percentile("recover_p50_ms", rec50, 50.0);
    log_percentile("recover_p90_ms", rec90, 90.0);
    if (!rec90.resolved()) {
      note_failures(res, {"too few recovery probes"}, "percentile");
    }
    std::printf("  recovery probes: %zu attempted, %zu failed\n",
                probes.attempted, probes.failures.size());
    extra["heal_p50_us"] = timing.heal50.value;
    extra["heal_p99_us"] = timing.heal99.value;
    extra["recover_p50_ms"] = rec50.value;
    extra["recover_p90_ms"] = rec90.value;
    extra["tenant_min_lost"] = lost_sum / traces;
    extra["journal_bytes_per_event"] =
        static_cast<double>(journal_bytes) / static_cast<double>(replayed);
    if (!probes.scan_s.empty()) {
      extra["recovery.recover.scan_s"] = median(probes.scan_s);
      extra["recovery.recover.replay_s"] = median(probes.replay_s);
    }
    extra["recovery.recover.replayed_events"] =
        ratio(probes.replayed_events, static_cast<double>(probes.attempted));
  }
  if (!opts.trace) return;

  // Traced run: the same traces through the decorated pool and forwarding
  // observer.  Per-layer figures are the mean over traces of each trace's
  // fastest traced pass.
  Values layers;
  double traced_rate = 0.0;
  std::vector<double> traced_probe_s;
  std::unique_ptr<SpanRecorder> kept;
  for (std::size_t k = 0; k < kOrchTraces; ++k) {
    const OrchInput& in = inputs[k];
    const auto& events = in.trace.events;
    std::printf("%s trace %zu, traced:\n", to_string(opts.workload), k);
    BestPass best = best_of(passes, probe, [&](std::size_t) {
      Samples samples;
      auto rec = std::make_unique<SpanRecorder>(events.size() * 6);
      const OrchPass pass = orch_pass(in, rec.get(), &samples);
      res.attempted += events.size();
      note_failures(res, pass.violations, "invariant violation (traced)");
      if (pass.fingerprint != fingerprints[k]) {
        note_failures(res, {"trace " + std::to_string(k) +
                            ": run_fingerprint differs from the untraced run"},
                      "traced run");
      }
      return Pass{timing_of(pass.setup_s, pass.timed_events, pass.timed_s,
                            samples),
                  orch_layers(in, pass, *rec), std::move(rec)};
    });
    for (const auto& [name, v] : best.layers) layers[name] += v / traces;
    traced_rate += best.timing.events_per_s / traces;
    traced_probe_s.insert(traced_probe_s.end(), best.probe_s.begin(),
                          best.probe_s.end());
    kept = std::move(best.spans);
  }
  traced_rate *= slowdown_of(traced_probe_s);
  std::printf("  traced: %.1f events/s scaled, fingerprints checked\n",
              traced_rate);
  log_checkpoints(*kept);
  for (const auto& [name, v] : extra) layers[name] = v;
  layers["trace.overhead_events_per_s"] = traced_rate - timing.events_per_s;
  res.per_layer = layer_metrics(layers);
  write_spans(opts, *kept);
}

// ---- sharded workload ------------------------------------------------------

/// One call into the router: a batch of consecutive arrivals or one release.
struct Step {
  bool release = false;
  std::uint32_t key = 0;  // release
  std::vector<orchestrator::AdmissionRequest> batch;
  std::uint64_t batch_seed = 0;
  std::size_t first_event = 0;  // trace index of the step's first event
  double time = 0.0;            // time of the step's last event
};

struct ShardedInput {
  model::PhysicalCluster fabric;
  std::vector<Step> steps;
  std::size_t warmup_steps = 0;
  std::size_t warmup_events = 0;
  std::size_t events = 0;
};

/// Hop diameter of a tree by double sweep (exact on trees).
double tree_hop_diameter(const graph::Graph& g) {
  const auto unit = [](EdgeId) { return 1.0; };
  const auto farthest = [&](NodeId from) {
    const auto sp = graph::dijkstra(g, from, unit);
    std::size_t best = 0;
    for (std::size_t v = 1; v < g.node_count(); ++v) {
      if (sp.dist[v] > sp.dist[best]) best = v;
    }
    return std::pair{NodeId{static_cast<NodeId::underlying_type>(best)},
                     sp.dist[best]};
  };
  const auto [turn, unused] = farthest(NodeId{0});
  (void)unused;
  return std::max(1.0, farthest(turn).second);
}

/// E14's fabric: Table-1 hosts on switch_tree(hosts, 8, 4), per-hop latency
/// scaled so the 30-60 ms envelope stays satisfiable across the diameter.
model::PhysicalCluster sharded_fabric(std::uint64_t seed) {
  auto topo = topology::switch_tree(kShardedHosts, 8, 4);
  model::LinkProps link = workload::paper_link_props();
  link.latency_ms = std::min(5.0, 30.0 / tree_hop_diameter(topo.graph));
  util::Rng rng(seed);
  auto caps = workload::generate_hosts(kShardedHosts,
                                       workload::paper_host_profile(), rng);
  return model::PhysicalCluster::build(std::move(topo), std::move(caps), link);
}

ShardedInput make_sharded_input(std::uint64_t seed, std::uint64_t k) {
  ShardedInput in;
  in.fabric = sharded_fabric(util::derive_seed(kSubstrateSeed, 3));
  workload::ChurnTrace trace = workload::generate_churn(
      tenant_shape(in.fabric, kShardedLoad, kShardedHorizon, kShardedLifetime,
                   0.0),
      util::derive_seed(seed, 2, k));
  cut_at(trace.events, kShardedHorizon);
  in.events = trace.events.size();
  in.warmup_events = first_at(trace.events, kShardedWarmup);

  Step open;
  std::uint64_t batches = 0;
  auto flush = [&] {
    if (open.batch.empty()) return;
    open.batch_seed = util::derive_seed(seed, 9, k, batches++);
    in.steps.push_back(std::move(open));
    open = Step{};
  };
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TenantEvent& ev = trace.events[i];
    if (i == in.warmup_events) {
      flush();
      in.warmup_steps = in.steps.size();
    }
    if (ev.kind == EventKind::kArrive) {
      if (open.batch.empty()) open.first_event = i;
      orchestrator::AdmissionRequest req;
      req.key = ev.tenant;
      req.venv = workload::make_event_venv(trace.profile, ev);
      req.seed = ev.seed;
      open.batch.push_back(std::move(req));
      open.time = ev.time;
      if (open.batch.size() == kMaxBatch) flush();
    } else {
      flush();
      Step rel;
      rel.release = true;
      rel.key = ev.tenant;
      rel.first_event = i;
      rel.time = ev.time;
      in.steps.push_back(std::move(rel));
    }
  }
  flush();
  return in;
}

orchestrator::RouterOptions router_options(std::size_t threads) {
  orchestrator::RouterOptions o;
  o.shards = kShards;
  o.threads = threads;
  o.probe_choices = 2;
  o.exhaustive_fallback = true;
  o.multilevel_min_hosts = kMultilevelMinHosts;
  return o;
}

/// Builds the router.  Traced, the benchmark partitions the fabric itself
/// (timed) and fronts each large shard's pool with a decorated multilevel
/// mapper over the same hierarchy the router would build, in place of the
/// router's own delegation, so that mapper can be timed too.
std::unique_ptr<orchestrator::PlacementRouter> make_router(
    const ShardedInput& in, std::size_t threads, SpanRecorder* rec) {
  orchestrator::RouterOptions opts = router_options(threads);
  if (rec == nullptr) {
    return std::make_unique<orchestrator::PlacementRouter>(
        in.fabric, opts, [] {
          extensions::HeuristicPool pool;
          pool.add(std::make_unique<core::HmnMapper>());
          return pool;
        });
  }
  topology::ClusterPartition part;
  {
    const SpanScope span(rec, Layer::kPartition, /*root=*/true);
    part = topology::partition_cluster(in.fabric, opts.shards);
  }
  multilevel::MultilevelOptions mo = opts.multilevel;
  mo.min_hosts = opts.multilevel_min_hosts;
  std::vector<std::shared_ptr<const multilevel::PhysicalHierarchy>> hier(
      part.shard_count());
  for (std::size_t s = 0; s < part.shard_count(); ++s) {
    if (part.shards[s].cluster.host_count() >= mo.min_hosts) {
      hier[s] = std::make_shared<const multilevel::PhysicalHierarchy>(
          multilevel::build_hierarchy(part.shards[s].cluster, mo.phys));
    }
  }
  opts.multilevel_min_hosts = 0;
  std::size_t next = 0;  // the factory is called once per shard, in order
  return std::make_unique<orchestrator::PlacementRouter>(
      in.fabric, opts, [&] {
        extensions::HeuristicPool pool;
        const std::size_t s = next++;
        if (s < hier.size() && hier[s] != nullptr) {
          pool.add(timed(
              std::make_unique<multilevel::MultilevelMapper>(mo, hier[s]),
              Layer::kMultilevel, *rec));
        }
        pool.add(timed(std::make_unique<core::HmnMapper>(), Layer::kHmn, *rec));
        return pool;
      });
}

double fabric_lbf(const orchestrator::PlacementRouter& router) {
  std::vector<double> rproc;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const std::vector<double> part =
        router.shard_manager(s).residual_host_proc();
    rproc.insert(rproc.end(), part.begin(), part.end());
  }
  return core::load_balance_factor(rproc);
}

struct ShardedPass {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::size_t timed_events = 0;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::string signature;
  std::size_t live_at_warmup = 0;  // running tenants, for the occupancy log
  std::size_t live_at_end = 0;
  // Traced run: router-side figures of the timed phase.
  double inlock_s = 0.0;
  double attempts = 0.0;
  double first_probe = 0.0;
  double headroom_spread_sum = 0.0;
  // Eq. 10 sampled after every timed batch.
  std::vector<double> lbf_times;
  std::vector<double> lbf_values;
};

/// One pass.  Eq. 10 (and, traced, the shard headroom) is sampled after
/// every timed batch, outside the timed calls; the sampling time is taken
/// out of the timed phase.
ShardedPass sharded_pass(const ShardedInput& in, std::size_t threads,
                         SpanRecorder* rec, Samples* samples) {
  ShardedPass p;
  std::int64_t sampling_ns = 0;
  const std::int64_t t0 = now_ns();
  auto router = make_router(in, threads, rec);
  auto apply = [&](const Step& step, bool timed_phase) {
    if (rec != nullptr) rec->set_event(step.first_event);
    if (step.release) {
      const std::int64_t a = now_ns();
      {
        const SpanScope span(rec, Layer::kRelease, /*root=*/true);
        (void)router->release(step.key);
      }
      const std::int64_t b = now_ns();
      if (timed_phase && samples != nullptr) {
        samples->event_us.push_back(us_between(a, b));
      }
      return;
    }
    const std::int64_t a = now_ns();
    std::vector<orchestrator::RouterDecision> decisions;
    {
      const SpanScope span(rec, Layer::kAdmitBatch, /*root=*/true);
      decisions = router->admit_batch(step.batch, step.batch_seed);
    }
    const std::int64_t b = now_ns();
    if (!timed_phase) return;
    const double us = us_between(a, b);
    for (const orchestrator::RouterDecision& d : decisions) {
      if (samples != nullptr) {
        samples->admit_us.push_back(us);
        samples->event_us.push_back(us);
      }
      ++p.arrivals;
      if (d.admitted) ++p.admitted;
      p.inlock_s += d.latency_us * 1e-6;
      p.attempts += d.attempts;
      if (d.admitted && d.attempts == 1) p.first_probe += 1.0;
    }
    if (rec != nullptr) {
      double lo = router->headroom(0);
      double hi = lo;
      for (std::size_t s = 1; s < router->shard_count(); ++s) {
        lo = std::min(lo, router->headroom(s));
        hi = std::max(hi, router->headroom(s));
      }
      p.headroom_spread_sum += hi - lo;
    }
    p.lbf_times.push_back(step.time);
    p.lbf_values.push_back(fabric_lbf(*router));
    sampling_ns += now_ns() - b;
  };
  for (std::size_t i = 0; i < in.warmup_steps; ++i) apply(in.steps[i], false);
  const std::int64_t t1 = now_ns();
  p.live_at_warmup = router->tenant_count();
  for (std::size_t i = in.warmup_steps; i < in.steps.size(); ++i) {
    apply(in.steps[i], true);
  }
  const std::int64_t t2 = now_ns();
  p.setup_s = seconds_between(t0, t1);
  p.timed_s = seconds_between(t1, t2 - sampling_ns);
  p.timed_events = in.events - in.warmup_events;
  p.signature = router->decision_signature();
  p.live_at_end = router->tenant_count();
  return p;
}

Values sharded_layers(const ShardedInput& in, const ShardedPass& pass,
                      const SpanRecorder& rec) {
  Values v;
  MapperTotals hmn;
  MapperTotals ml;
  MapperTotals stages;
  for (const Span& s : rec.spans()) {
    if (s.layer == Layer::kPartition) {
      v["topology.partition.s"] += seconds_between(s.start_ns, s.end_ns);
    }
    if (s.event < in.warmup_events) continue;
    switch (s.layer) {
      case Layer::kAdmitBatch:
        v["orchestrator.router.batch_s"] +=
            seconds_between(s.start_ns, s.end_ns);
        break;
      case Layer::kHmn:
        hmn.add(s);
        stages.add_stages(s);
        break;
      case Layer::kMultilevel:
        ml.add(s);
        stages.add_stages(s);
        break;
      default:
        break;
    }
  }
  put_hmn(v, hmn, stages);
  const double requests = static_cast<double>(pass.arrivals);
  std::size_t batches = 0;
  for (std::size_t i = in.warmup_steps; i < in.steps.size(); ++i) {
    if (!in.steps[i].release) ++batches;
  }
  v["orchestrator.router.inlock_s"] = pass.inlock_s;
  v["orchestrator.router.attempts_per_request"] =
      ratio(pass.attempts, requests);
  v["orchestrator.router.first_probe_ratio"] =
      ratio(pass.first_probe, requests);
  v["orchestrator.router.headroom_spread"] =
      ratio(pass.headroom_spread_sum, static_cast<double>(batches));
  v["extensions.pool.fallback_ratio"] = ratio(hmn.calls, ml.calls);
  v["multilevel.mapper.s"] = pass.inlock_s - hmn.seconds;
  v["multilevel.flat_fallback_ratio"] = ratio(hmn.calls, pass.attempts);
  return v;
}

void run_sharded(const RunOptions& opts, RunResult& res) {
  const std::size_t passes =
      passes_for(opts.seconds, kShardedTraces, kShardedPassS);
  std::vector<ShardedInput> inputs;
  inputs.reserve(kShardedTraces);  // `in` below refers into it
  std::vector<std::string> signatures;  // per trace, untraced
  std::vector<PassTiming> timings;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  double lbf_sum = 0.0;
  HostProbe probe;
  std::vector<double> probe_s;  // host probe times around untraced passes
  for (std::size_t k = 0; k < kShardedTraces; ++k) {
    inputs.push_back(make_sharded_input(opts.seed, k));
    const ShardedInput& in = inputs.back();
    std::printf("sharded trace %zu: %zu events (%zu set-up, %zu timed) in "
                "%zu calls, fabric %zu hosts, %zu passes\n",
                k, in.events, in.warmup_events, in.events - in.warmup_events,
                in.steps.size(), in.fabric.host_count(), passes);
    BestPass best = best_of(passes, probe, [&](std::size_t i) {
      Samples samples;
      const ShardedPass p = sharded_pass(in, kShardThreads, nullptr, &samples);
      res.attempted += in.events;
      if (i == 0) {
        signatures.push_back(p.signature);
        arrivals += p.arrivals;
        admitted += p.admitted;
        lbf_sum += time_weighted_mean(p.lbf_times, p.lbf_values);
        std::printf("  running tenants: %zu after set-up, %zu at the end\n",
                    p.live_at_warmup, p.live_at_end);
      } else if (p.signature != signatures.back()) {
        note_failures(res, {"trace " + std::to_string(k) + " pass " +
                            std::to_string(i) +
                            " decision_signature differs from its first pass"},
                      "replay");
      }
      return Pass{timing_of(p.setup_s, p.timed_events, p.timed_s, samples),
                  {}, nullptr};
    });
    timings.push_back(best.timing);
    probe_s.insert(probe_s.end(), best.probe_s.begin(), best.probe_s.end());
  }
  const double slowdown = slowdown_of(probe_s);
  const PassTiming timing = scaled(mean_of(timings), slowdown);
  log_samples(timing, kShardedTraces, passes, false);
  note_unresolved(res, timing, false);

  // Check replay of the first trace on one thread: the decision signature
  // must not depend on the thread count.
  const ShardedPass serial = sharded_pass(inputs[0], 1, nullptr, nullptr);
  res.attempted += inputs[0].events;
  if (serial.signature != signatures[0]) {
    note_failures(res, {"decision_signature differs between 2 threads and 1"},
                  "threads");
  }
  std::printf("  1-thread replay of trace 0: %.1f events/s, signature %s\n",
              static_cast<double>(serial.timed_events) / serial.timed_s,
              serial.signature == signatures[0] ? "matches" : "DIFFERS");

  const double traces = static_cast<double>(kShardedTraces);
  res.end_to_end = end_to_end_metrics(
      timing, acceptance(admitted, 0, arrivals), lbf_sum / traces);
  if (!opts.trace) return;

  Values layers;
  double traced_rate = 0.0;
  std::vector<double> traced_probe_s;
  std::unique_ptr<SpanRecorder> kept;
  for (std::size_t k = 0; k < kShardedTraces; ++k) {
    const ShardedInput& in = inputs[k];
    std::printf("sharded trace %zu, traced:\n", k);
    BestPass best = best_of(passes, probe, [&](std::size_t) {
      Samples samples;
      auto rec = std::make_unique<SpanRecorder>(in.events * 4);
      const ShardedPass p = sharded_pass(in, kShardThreads, rec.get(), &samples);
      res.attempted += in.events;
      if (p.signature != signatures[k]) {
        note_failures(res, {"trace " + std::to_string(k) +
                            ": decision_signature differs from the untraced "
                            "run"},
                      "traced run");
      }
      return Pass{timing_of(p.setup_s, p.timed_events, p.timed_s, samples),
                  sharded_layers(in, p, *rec), std::move(rec)};
    });
    for (const auto& [name, v] : best.layers) layers[name] += v / traces;
    traced_rate += best.timing.events_per_s / traces;
    traced_probe_s.insert(traced_probe_s.end(), best.probe_s.begin(),
                          best.probe_s.end());
    kept = std::move(best.spans);
  }
  traced_rate *= slowdown_of(traced_probe_s);
  std::printf("  traced: %.1f events/s scaled, signatures checked\n",
              traced_rate);
  layers["trace.overhead_events_per_s"] = traced_rate - timing.events_per_s;
  layers["host.slowdown"] = slowdown;
  res.per_layer = layer_metrics(layers);
  write_spans(opts, *kept);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kChurn, Workload::kFailstorm, Workload::kSharded}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kChurn: return "churn";
    case Workload::kFailstorm: return "failstorm";
    case Workload::kSharded: return "sharded";
  }
  return "?";
}

RunResult run_workload(const RunOptions& opts) {
  RunResult res;
  try {
    if (opts.workload == Workload::kSharded) {
      run_sharded(opts, res);
    } else {
      run_orchestrator(opts, res);
    }
  } catch (const std::exception& e) {
    res.failed += 1;
    res.failures.push_back(std::string("exception: ") + e.what());
  }
  return res;
}

}  // namespace perfbench
