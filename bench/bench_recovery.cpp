// E18 — crash-consistent orchestration: the write-ahead journal, the
// checkpoint/recovery path, and the crash-point chaos harness (extension;
// the paper's Section 1 testbeds assume an immortal control plane — a
// production embedding service cannot).
//
// Four gates, all of which must hold for a zero exit:
//
//   crash sweep     a churn + blast-failure run is journaled; the process
//                   is killed at injected crash points (every journal
//                   record append is a site; `--smoke` samples them via
//                   workload::generate_crash_schedule, the full run sweeps
//                   ALL of them) and recovered from the surviving bytes.
//                   The resumed run's fingerprint AND encoded final state
//                   must be byte-identical to the uninterrupted run's.
//   corruption      a mid-stream bit flip, two doctored checkpoints (one
//                   claims aggregates its mappings do not back, one names
//                   a host the fabric lacks and is re-framed with a valid
//                   CRC), an EVENT_BEGIN re-framed with a valid CRC and a
//                   2^40-guest arrive, and a journal truncated inside a
//                   frame: the first four must fail recovery loudly with
//                   descriptive errors; the truncation must recover
//                   exactly the intact prefix.
//   overhead        the E12 churn workload runs with and without the
//                   WalManager attached, as 5 interleaved passes per rep
//                   whose best p99 each side keeps; journaling must cost
//                   ≤5% (plus a small absolute slack for timer noise) on
//                   the admission decision p99.
//   bounded replay  recovery work is O(checkpoint + tail), not O(run):
//                   with checkpoints every N events, recovery replays at
//                   most N groups however long the run was; with
//                   checkpoints off it replays everything.  Wall-clock
//                   times are reported; the gate is structural.
#include "bench_common.h"

#include <algorithm>
#include <limits>
#include <string_view>

#include "orchestrator/orchestrator.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "topology/topologies.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/crashes.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;

// --- the journaled workload: churn + blast failures on a racked fabric ---

model::PhysicalCluster recovery_cluster() {
  return model::PhysicalCluster::build(
      topology::switch_tree(8, 4, 2),
      std::vector<model::HostCapacity>(8, {1000, 4096, 4096}),
      model::LinkProps{1000.0, 5.0});
}

workload::ChurnTrace recovery_trace(const model::PhysicalCluster& cluster,
                                    std::uint64_t seed, double horizon) {
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.6;
  copts.horizon = horizon;
  copts.mean_lifetime = 10.0;
  copts.min_guests = 2;
  copts.max_guests = 6;
  copts.density = 0.3;
  copts.grow_probability = 0.2;
  copts.profile = workload::high_level_profile();
  copts.profile.mem_mb = {512.0, 1280.0};
  auto trace = workload::generate_churn(copts, seed);
  workload::FailureOptions fopts;
  fopts.horizon = copts.horizon;
  fopts.host_mttf = 60.0;
  fopts.host_mttr = 4.0;
  fopts.blast_mttf = 18.0;
  fopts.blast_mttr = 4.0;
  workload::merge_events(trace,
                         workload::generate_failures(fopts, cluster,
                                                     seed ^ 0xb1a57));
  return trace;
}

orchestrator::OrchestratorOptions recovery_options() {
  orchestrator::OrchestratorOptions opts;
  opts.retry_max_attempts = 4;
  opts.retry_max_passovers = 3;
  opts.queue_policy = orchestrator::QueuePolicy::kSmallestFirst;
  return opts;
}

struct Reference {
  model::PhysicalCluster cluster;
  workload::ChurnTrace trace;
  std::uint64_t fingerprint = 0;
  std::string final_state;
  std::string journal;       // the uninterrupted, checkpointed journal
  std::uint64_t total_records = 0;
};

Reference make_reference(std::uint64_t seed, double horizon,
                         std::uint64_t checkpoint_every) {
  Reference ref;
  ref.cluster = recovery_cluster();
  ref.trace = recovery_trace(ref.cluster, seed, horizon);
  recovery::WalOptions wopts;
  wopts.checkpoint_every_events = checkpoint_every;
  orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                  recovery_options());
  recovery::WalManager wal(orch, ref.journal, wopts);
  for (const auto& ev : ref.trace.events) orch.handle(ev);
  ref.fingerprint = orch.run_fingerprint();
  ref.final_state = recovery::encode_state(orch.export_state());
  ref.total_records = wal.next_seq();
  return ref;
}

// --- gate 1: the crash sweep ---------------------------------------------

/// Kills the run at `point`, recovers from the surviving journal bytes,
/// resumes, and reports whether the trajectory was reproduced exactly.
bool crash_and_recover(const Reference& ref, const workload::CrashPoint& point,
                       std::uint64_t checkpoint_every, bool& used_checkpoint,
                       bool& torn_tail) {
  recovery::WalOptions wopts;
  wopts.checkpoint_every_events = checkpoint_every;
  std::string journal;
  bool crashed = false;
  {
    orchestrator::Orchestrator doomed(ref.cluster, ref.trace.profile,
                                      recovery_options());
    recovery::WalManager wal(doomed, journal, wopts);
    wal.arm_crash(point);
    try {
      for (const auto& ev : ref.trace.events) doomed.handle(ev);
    } catch (const recovery::CrashError&) {
      crashed = true;
    }
    // Process death: doomed and wal are abandoned with the event half done.
  }
  if (!crashed) return false;

  orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                  recovery_options());
  const recovery::RecoveredRun rec = recovery::recover(orch, journal);
  used_checkpoint = rec.used_checkpoint;
  torn_tail = rec.torn_tail;
  journal.resize(rec.valid_bytes);
  recovery::WalManager wal(orch, journal, wopts, rec.next_seq);
  for (std::size_t i = rec.next_event_index; i < ref.trace.events.size();
       ++i) {
    orch.handle(ref.trace.events[i]);
  }
  return orch.run_fingerprint() == ref.fingerprint &&
         recovery::encode_state(orch.export_state()) == ref.final_state;
}

// --- gate 2: corruption canaries -----------------------------------------

/// A bit-flipped journal, two doctored checkpoints and a doctored event
/// must fail recovery loudly; a truncation inside the final frame must
/// recover exactly the intact prefix.  Runs standalone under `--canary` so
/// CI has a dedicated guard against recovery going silently permissive.
bool run_corruption_canaries(const Reference& ref) {
  bool flip_loud = false, doctored_loud = false, far_host_loud = false;
  bool huge_venv_loud = false;
  bool truncation_clean = false;

  // Bit flip in an early frame's payload: bytes follow, so this is rot.
  std::string corrupt = ref.journal;
  corrupt[24] ^= 0x10;
  try {
    orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                    recovery_options());
    (void)recovery::recover(orch, corrupt);
    std::printf("bit flip: LOADED SILENTLY — recovery is broken\n");
  } catch (const recovery::RecoveryError& e) {
    flip_loud = std::string_view(e.what()).find("byte offset") !=
                std::string_view::npos;
    std::printf("bit flip: refused (\"%.60s...\")\n", e.what());
  }

  // A checkpoint claiming aggregates its mappings don't back: the restore
  // path must refuse the smuggled bookkeeping.
  const auto parse = recovery::parse_journal(ref.journal);
  for (const auto& rec : parse.records) {
    if (rec.type != recovery::RecordType::kCheckpoint) continue;
    auto state = recovery::decode_state(rec.checkpoint);
    if (state.tenancy.used_mem.empty()) continue;
    state.tenancy.used_mem[0] += 777.0;
    try {
      orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                      recovery_options());
      orch.restore_state(std::move(state));
      std::printf("doctored checkpoint: ACCEPTED — restore is broken\n");
    } catch (const std::invalid_argument& e) {
      doctored_loud = true;
      std::printf("doctored checkpoint: refused (\"%.60s...\")\n", e.what());
    }
    break;
  }

  // A checkpoint naming a host the fabric lacks, framed with a valid CRC
  // so the codec decodes it: restore must refuse the id before indexing
  // anything by it (an out-of-bounds write, under a sanitizer an abort).
  for (const auto& rec : parse.records) {
    if (rec.type != recovery::RecordType::kCheckpoint) continue;
    auto state = recovery::decode_state(rec.checkpoint);
    if (state.tenancy.tenants.empty()) continue;
    state.tenancy.tenants[0].mapping.guest_host[0] = NodeId{100000};
    std::string journal;
    recovery::JournalWriter w(journal);
    w.checkpoint(rec.event_index, rec.fingerprint,
                 recovery::encode_state(state));
    try {
      orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                      recovery_options());
      (void)recovery::recover(orch, journal);
      std::printf("out-of-range host: ACCEPTED — restore is broken\n");
    } catch (const recovery::RecoveryError& e) {
      far_host_loud = std::string_view(e.what()).find(
                          "checkpoint state rejected") !=
                      std::string_view::npos;
      std::printf("out-of-range host: refused (\"%.60s...\")\n", e.what());
    }
    break;
  }

  // An arrive asking for 2^40 guests, framed with a valid CRC: the event
  // decoder must refuse the count before replay sizes a venv from it.
  for (const auto& rec : parse.records) {
    if (rec.type != recovery::RecordType::kEventBegin ||
        rec.event.kind != workload::EventKind::kArrive) {
      continue;
    }
    workload::TenantEvent huge = rec.event;
    huge.guest_count = std::size_t{1} << 40;
    std::string journal;
    recovery::JournalWriter w(journal);
    w.event_begin(0, huge);
    w.event_end(0, huge.time, 0);
    try {
      orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                      recovery_options());
      (void)recovery::recover(orch, journal);
      std::printf("2^40-guest arrive: ACCEPTED — the decoder is broken\n");
    } catch (const recovery::RecoveryError& e) {
      huge_venv_loud = std::string_view(e.what()).find(
                           "event.guest_count") != std::string_view::npos;
      std::printf("2^40-guest arrive: refused (\"%.60s...\")\n", e.what());
    }
    break;
  }

  // Truncation inside the final frame: a crash artifact, recovered as the
  // intact prefix with the torn tail reported.
  orchestrator::Orchestrator orch(ref.cluster, ref.trace.profile,
                                  recovery_options());
  const auto rec = recovery::recover(
      orch,
      std::string_view(ref.journal).substr(0, ref.journal.size() - 5));
  truncation_clean = rec.torn_tail &&
                     rec.next_event_index < ref.trace.events.size() &&
                     orch.run_fingerprint() != ref.fingerprint;
  std::printf("truncated tail: recovered prefix through event %llu of %zu\n",
              (unsigned long long)rec.next_event_index,
              ref.trace.events.size());
  return flip_loud && doctored_loud && far_host_loud && huge_venv_loud &&
         truncation_clean;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmn::bench;
  const auto flags = parse_args(argc, argv, {"--smoke", "--canary"});
  const bool smoke = flags.contains("--smoke");
  const bool canary_only = flags.contains("--canary");

  const std::uint64_t checkpoint_every = 8;
  const double horizon = smoke || canary_only ? 30.0 : 60.0;
  const auto seed = util::derive_seed(env_seed(), 48);

  Gates gates;
  if (canary_only) {
    std::printf("E18: journal-corruption canary\n\n");
    const Reference ref = make_reference(seed, horizon, checkpoint_every);
    gates.check("corruption canaries", run_corruption_canaries(ref));
    return gates.report();
  }

  std::printf("E18: crash-consistent orchestration%s\n\n",
              smoke ? " (smoke)" : "");

  // ---- gate 1: crash sweep ----------------------------------------------
  const Reference ref = make_reference(seed, horizon, checkpoint_every);
  std::vector<workload::CrashPoint> points;
  if (smoke) {
    points = workload::generate_crash_schedule(util::derive_seed(seed, 1), 25,
                                               ref.total_records);
  } else {
    points.reserve(ref.total_records);
    for (std::uint64_t s = 0; s < ref.total_records; ++s) {
      points.push_back({s, s * 2654435761ull + 0x9E3779B9ull});
    }
  }
  std::size_t identical = 0, torn = 0, checkpointed = 0;
  for (const auto& point : points) {
    bool used_ckpt = false, torn_tail = false;
    if (crash_and_recover(ref, point, checkpoint_every, used_ckpt,
                          torn_tail)) {
      ++identical;
    } else {
      std::printf("CRASH POINT DIVERGED: seq %llu torn_seed %llu\n",
                  (unsigned long long)point.record_seq,
                  (unsigned long long)point.torn_seed);
    }
    torn += torn_tail;
    checkpointed += used_ckpt;
  }
  gates.check("crash sweep", identical == points.size() && torn > 0);
  std::printf("crash sweep: %zu/%zu sites byte-identical after recovery "
              "(%llu journal records, %zu torn tails, %zu checkpointed "
              "recoveries)\n",
              identical, points.size(),
              (unsigned long long)ref.total_records, torn, checkpointed);

  gates.check("corruption canaries", run_corruption_canaries(ref));
  // ---- gate 3: journal overhead on E12 admission p99 --------------------
  const std::size_t reps = smoke ? 3 : std::max<std::size_t>(6, bench_reps() / 5);
  const double e12_horizon = smoke ? 40.0 : 120.0;
  // Each rep runs both sides as interleaved passes and keeps each side's
  // best p99 (perfbench's and E14's rule): a single pass's p99 is a
  // handful of decisions, and one scheduler hiccup moves it by hundreds of
  // microseconds.
  constexpr std::size_t kPasses = 5;
  util::RunningStats p99_plain, p99_wal;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto rep_seed = util::derive_seed(env_seed(), 49, rep);
    const auto cluster =
        workload::make_paper_cluster(workload::ClusterKind::kSwitched,
                                     rep_seed);
    const auto copts = e12_churn(0.9, e12_horizon, cluster);
    const auto trace =
        workload::generate_churn(copts, util::derive_seed(rep_seed, 1));
    double best_plain = std::numeric_limits<double>::infinity();
    double best_wal = best_plain;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      {
        orchestrator::Orchestrator orch(cluster, trace.profile, hmn_pool(),
                                        {});
        best_plain = std::min(best_plain,
                              orch.run(trace).latency_percentile_us(99.0));
      }
      {
        std::string journal;
        recovery::WalOptions wopts;
        wopts.checkpoint_every_events = 64;
        orchestrator::Orchestrator orch(cluster, trace.profile, hmn_pool(),
                                        {});
        recovery::WalManager wal(orch, journal, wopts);
        for (const auto& ev : trace.events) orch.handle(ev);
        best_wal = std::min(best_wal,
                            orch.report().latency_percentile_us(99.0));
      }
    }
    p99_plain.add(best_plain);
    p99_wal.add(best_wal);
  }
  // 5% relative plus a small absolute slack: at microsecond scale the
  // timer's own jitter would otherwise dominate the verdict.
  gates.check("overhead", p99_wal.mean() <= p99_plain.mean() * 1.05 + 25.0);
  std::printf("\njournal overhead (E12 churn, %zu reps, best of %zu "
              "passes): admission p99 %.0f us plain vs %.0f us journaled "
              "(%+.1f%%)\n",
              reps, kPasses, p99_plain.mean(), p99_wal.mean(),
              p99_plain.mean() > 0.0
                  ? 100.0 * (p99_wal.mean() / p99_plain.mean() - 1.0)
                  : 0.0);

  // ---- gate 4: recovery work is O(checkpoint + tail) --------------------
  {
    // Same workload journaled twice: with checkpoints and without.  The
    // checkpointed recovery may replay at most checkpoint_every groups no
    // matter how long the run was; the bare journal replays all of it.
    std::string bare;
    orchestrator::Orchestrator full(ref.cluster, ref.trace.profile,
                                    recovery_options());
    {
      recovery::WalManager wal(full, bare, {.checkpoint_every_events = 0});
      for (const auto& ev : ref.trace.events) full.handle(ev);
    }
    orchestrator::Orchestrator a(ref.cluster, ref.trace.profile,
                                 recovery_options());
    util::Timer timer;
    const auto rec_ckpt = recovery::recover(a, ref.journal);
    const double ckpt_ms = timer.elapsed_ms();
    orchestrator::Orchestrator b(ref.cluster, ref.trace.profile,
                                 recovery_options());
    timer.restart();
    const auto rec_bare = recovery::recover(b, bare);
    const double bare_ms = timer.elapsed_ms();
    gates.check("bounded replay",
                rec_ckpt.used_checkpoint &&
                    rec_ckpt.replayed_events <= checkpoint_every &&
                    !rec_bare.used_checkpoint &&
                    rec_bare.replayed_events == ref.trace.events.size() &&
                    a.run_fingerprint() == ref.fingerprint &&
                    b.run_fingerprint() == ref.fingerprint);
    std::printf("bounded replay: checkpointed recovery replayed %llu of %zu "
                "events in %.2f ms; full replay %llu events in %.2f ms\n",
                (unsigned long long)rec_ckpt.replayed_events,
                ref.trace.events.size(), ckpt_ms,
                (unsigned long long)rec_bare.replayed_events, bare_ms);
  }

  std::printf("\nMeasured finding: killing the orchestrator at %s journal "
              "record and recovering from the surviving bytes reproduces "
              "the uninterrupted run bit-for-bit — the journal's group "
              "commit plus CRC torn-tail truncation makes every crash "
              "either invisible or loud, never silently wrong.\n",
              smoke ? "a sampled" : "every");
  return gates.report();
}
