// recover(): checkpoint restore + journal-tail replay, with every failure
// mode loud — replay divergence, event-index gaps, orphaned END markers,
// mid-stream corruption — and every crash artifact (torn tail, truncated
// journal) absorbed exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/binfmt.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/harness.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using orchestrator::Orchestrator;
using recovery::RecoveredRun;
using recovery::RecoveryError;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

struct Baseline {
  std::string journal;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::string final_state;  // encode_state of the finished run
};

Baseline run_uninterrupted(std::uint64_t checkpoint_every,
                           std::uint64_t seed = 0x5EEDu) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, seed);
  Baseline base;
  recovery::WalOptions wopts;
  wopts.checkpoint_every_events = checkpoint_every;
  Orchestrator orch(cluster, trace.profile, recovery_options());
  recovery::WalManager wal(orch, base.journal, wopts);
  for (const auto& ev : trace.events) orch.handle(ev);
  base.fingerprint = orch.run_fingerprint();
  base.events = orch.events_handled();
  base.final_state = recovery::encode_state(orch.export_state());
  return base;
}

TEST(RecoveryTest, FullReplayWithoutCheckpointsRebuildsTheRun) {
  const Baseline base = run_uninterrupted(/*checkpoint_every=*/0);
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0x5EEDu);

  Orchestrator orch(cluster, trace.profile, recovery_options());
  const RecoveredRun rec = recovery::recover(orch, base.journal);
  EXPECT_FALSE(rec.used_checkpoint);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.replayed_events, base.events);
  EXPECT_EQ(rec.next_event_index, base.events);
  EXPECT_EQ(orch.run_fingerprint(), base.fingerprint);
  EXPECT_EQ(recovery::encode_state(orch.export_state()), base.final_state);
}

TEST(RecoveryTest, CheckpointBoundsReplayToTheTail) {
  const Baseline base = run_uninterrupted(/*checkpoint_every=*/8);
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0x5EEDu);

  Orchestrator orch(cluster, trace.profile, recovery_options());
  const RecoveredRun rec = recovery::recover(orch, base.journal);
  EXPECT_TRUE(rec.used_checkpoint);
  // The newest checkpoint covers the largest multiple of 8 <= events.
  EXPECT_EQ(rec.checkpoint_event_index, (base.events / 8) * 8);
  EXPECT_EQ(rec.replayed_events, base.events - rec.checkpoint_event_index);
  EXPECT_EQ(orch.run_fingerprint(), base.fingerprint);
  EXPECT_EQ(recovery::encode_state(orch.export_state()), base.final_state);
}

TEST(RecoveryTest, TruncatedJournalRecoversThePrefix) {
  const Baseline base = run_uninterrupted(/*checkpoint_every=*/8);
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0x5EEDu);

  // Cut the journal at an arbitrary byte (mid-frame): the torn tail is
  // dropped and recovery lands on the last complete group before the cut.
  const std::string cut = base.journal.substr(0, base.journal.size() / 2);
  Orchestrator orch(cluster, trace.profile, recovery_options());
  const RecoveredRun rec = recovery::recover(orch, cut);
  EXPECT_LE(rec.valid_bytes, cut.size());
  EXPECT_LT(rec.next_event_index, base.events);
  EXPECT_EQ(orch.events_handled(), rec.next_event_index);

  // Resuming the feed from next_event_index reconverges on the baseline.
  std::string journal(cut.substr(0, rec.valid_bytes));
  recovery::WalOptions wopts;
  wopts.checkpoint_every_events = 8;
  recovery::WalManager wal(orch, journal, wopts, rec.next_seq);
  ASSERT_FALSE(feed(orch, trace.events, rec.next_event_index).has_value());
  EXPECT_EQ(orch.run_fingerprint(), base.fingerprint);
  EXPECT_EQ(recovery::encode_state(orch.export_state()), base.final_state);
}

TEST(RecoveryTest, MidStreamBitFlipIsALoudCanary) {
  const Baseline base = run_uninterrupted(/*checkpoint_every=*/8);
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0x5EEDu);

  // Flip one bit in the middle of the journal: recovery must refuse with
  // the byte offset, never silently truncate to the prefix.
  std::string corrupt = base.journal;
  corrupt[corrupt.size() / 2] ^= 0x10;
  Orchestrator orch(cluster, trace.profile, recovery_options());
  try {
    (void)recovery::recover(orch, corrupt);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "byte offset")) << e.what();
  }
}

TEST(RecoveryTest, ReplayDivergenceIsRefused) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0x5EEDu);

  // Journal a run, then doctor one EVENT_BEGIN's embedded event (different
  // seed => different admission decision downstream).  Re-framing keeps the
  // CRCs valid, so only the fingerprint check can catch it.
  std::string journal;
  {
    Orchestrator orch(cluster, trace.profile, recovery_options());
    recovery::WalOptions wopts;
    wopts.checkpoint_every_events = 0;  // full replay must see the doctoring
    recovery::WalManager wal(orch, journal, wopts);
    for (const auto& ev : trace.events) orch.handle(ev);
  }
  const recovery::JournalParse parse = recovery::parse_journal(journal);
  std::string doctored;
  recovery::JournalWriter w(doctored);
  for (const recovery::JournalRecord& rec : parse.records) {
    switch (rec.type) {
      case recovery::RecordType::kEventBegin: {
        workload::TenantEvent ev = rec.event;
        if (ev.kind == workload::EventKind::kArrive) ev.seed ^= 0xBAD;
        w.event_begin(rec.event_index, ev);
        break;
      }
      case recovery::RecordType::kTxn:
        w.txn(rec.txn);
        break;
      case recovery::RecordType::kEventEnd:
        w.event_end(rec.event_index, rec.time, rec.fingerprint);
        break;
      case recovery::RecordType::kCheckpoint:
        w.checkpoint(rec.event_index, rec.fingerprint, rec.checkpoint);
        break;
    }
  }

  Orchestrator orch(cluster, trace.profile, recovery_options());
  try {
    (void)recovery::recover(orch, doctored);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "replay diverged")) << e.what();
  }
}

TEST(RecoveryTest, OrphanedEndAndIndexGapAreRefused) {
  // END without BEGIN.
  {
    std::string journal;
    recovery::JournalWriter w(journal);
    w.event_end(0, 1.0, 7);
    Orchestrator orch(recovery_cluster(), workload::high_level_profile());
    try {
      (void)recovery::recover(orch, journal);
      FAIL() << "expected RecoveryError";
    } catch (const RecoveryError& e) {
      EXPECT_TRUE(contains(e.what(), "without its EVENT_BEGIN")) << e.what();
    }
  }
  // A group numbered past the recovered state (journal gap).
  {
    std::string journal;
    recovery::JournalWriter w(journal);
    workload::TenantEvent ev;
    ev.time = 1.0;
    ev.kind = workload::EventKind::kDepart;
    ev.tenant = 3;
    w.event_begin(5, ev);
    w.event_end(5, 1.0, 7);
    Orchestrator orch(recovery_cluster(), workload::high_level_profile());
    try {
      (void)recovery::recover(orch, journal);
      FAIL() << "expected RecoveryError";
    } catch (const RecoveryError& e) {
      EXPECT_TRUE(contains(e.what(), "does not follow the recovered state"))
          << e.what();
    }
  }
}

TEST(RecoveryTest, CheckpointCountBeyondItsBytesIsRefused) {
  // A CRC-valid checkpoint whose element count claims more elements than
  // the payload can hold must fail as a RecoveryError, never size a vector
  // from the count first.
  Orchestrator fresh(recovery_cluster(), workload::high_level_profile());
  const Orchestrator::State state = fresh.export_state();
  const std::string encoded = recovery::encode_state(state);
  // tenancy.node_down's count follows the version (4 bytes), the tenant
  // count (8) and next_id (4).  tenancy.used_proc's count follows the
  // node_down and edge_down flags, the host weights and the headroom.
  const std::size_t node_down_at = 16;
  const std::size_t used_proc_at =
      node_down_at + 8 + state.tenancy.node_down.size() + 8 +
      state.tenancy.edge_down.size() + 8 +
      8 * state.tenancy.host_weights.size() + 8;
  for (const auto& [at, count] :
       {std::pair{node_down_at, state.tenancy.node_down.size()},
        std::pair{used_proc_at, state.tenancy.used_proc.size()}}) {
    io::BinReader original(std::string_view(encoded).substr(at));
    ASSERT_EQ(original.take_u64(), std::optional<std::uint64_t>(count));
    std::string huge;
    io::put_u64(huge, std::uint64_t{1} << 62);
    std::string doctored = encoded;
    doctored.replace(at, huge.size(), huge);
    std::string journal;
    recovery::JournalWriter w(journal);
    w.checkpoint(fresh.events_handled(), fresh.run_fingerprint(), doctored);
    Orchestrator orch(recovery_cluster(), workload::high_level_profile());
    try {
      (void)recovery::recover(orch, journal);
      FAIL() << "expected RecoveryError for the count at byte " << at;
    } catch (const RecoveryError& e) {
      EXPECT_TRUE(contains(e.what(), "exceeds the bytes left")) << e.what();
    }
  }
}

/// The state of an orchestrator stopped mid-trace, with running tenants.
Orchestrator::State mid_run_state(const model::PhysicalCluster& cluster) {
  const auto trace = recovery_trace(cluster, 0xC0DEu);
  Orchestrator orch(cluster, trace.profile, recovery_options());
  for (std::size_t i = 0; i < trace.events.size() / 2; ++i) {
    orch.handle(trace.events[i]);
  }
  return orch.export_state();
}

TEST(RecoveryTest, CheckpointNamingAHostTheClusterLacksIsRefused) {
  // A doctored checkpoint framed with a fresh CRC: the codec decodes it,
  // and restore must refuse the host id before indexing anything by it.
  const auto cluster = recovery_cluster();
  Orchestrator::State state = mid_run_state(cluster);
  ASSERT_FALSE(state.tenancy.tenants.empty());
  state.tenancy.tenants[0].mapping.guest_host[0] = NodeId{100000};
  std::string journal;
  recovery::JournalWriter w(journal);
  w.checkpoint(state.events_handled, state.run_fingerprint,
               recovery::encode_state(state));
  Orchestrator orch(cluster, workload::high_level_profile(),
                    recovery_options());
  try {
    (void)recovery::recover(orch, journal);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "checkpoint state rejected")) << e.what();
    EXPECT_TRUE(contains(e.what(), "node 100000")) << e.what();
  }
}

TEST(RecoveryTest, LiveKeyNamingNoTenantIsRefused) {
  // GROW and DEPART look a live key's tenant up unchecked, so a state
  // whose `live` map names a tenant it does not hold is refused.
  const auto cluster = recovery_cluster();
  Orchestrator::State state = mid_run_state(cluster);
  state.live[4000000000u] = 4000000000u;
  Orchestrator orch(cluster, workload::high_level_profile(),
                    recovery_options());
  EXPECT_THROW(orch.restore_state(state), std::invalid_argument);
}

TEST(RecoveryTest, TrailingOpenGroupIsDroppedAsCrashArtifact) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0x5EEDu);
  std::string journal;
  std::uint64_t fingerprint_before_last = 0;
  {
    Orchestrator orch(cluster, trace.profile, recovery_options());
    recovery::WalManager wal(orch, journal, {});
    for (std::size_t i = 0; i + 1 < trace.events.size(); ++i) {
      orch.handle(trace.events[i]);
    }
    fingerprint_before_last = orch.run_fingerprint();
    // Journal the last event's BEGIN by hand, no END: the crash window.
    recovery::JournalWriter tail(journal, wal.next_seq());
    tail.event_begin(orch.events_handled(), trace.events.back());
  }

  Orchestrator orch(cluster, trace.profile, recovery_options());
  const RecoveredRun rec = recovery::recover(orch, journal);
  EXPECT_EQ(rec.next_event_index, trace.events.size() - 1);
  EXPECT_EQ(orch.run_fingerprint(), fingerprint_before_last);
}

workload::TenantEvent key_event(workload::EventKind kind, double time,
                                std::uint32_t key) {
  workload::TenantEvent ev;
  ev.time = time;
  ev.kind = kind;
  ev.tenant = key;
  if (kind == workload::EventKind::kArrive) {
    ev.guest_count = 2;
    ev.seed = 1;
  }
  return ev;
}

/// A genuine journal of one arrive for key 1 at time 5, followed by
/// EVENT_BEGIN/EVENT_END groups for `doctored`, framed with valid CRCs.
/// Returns the journal and the record index of the first doctored group's
/// EVENT_BEGIN.
std::pair<std::string, std::size_t> doctored_journal(
    const std::vector<workload::TenantEvent>& doctored) {
  const auto cluster = recovery_cluster();
  std::string journal;
  {
    Orchestrator orch(cluster, workload::high_level_profile(),
                      recovery_options());
    recovery::WalManager wal(orch, journal, {});
    (void)orch.handle(key_event(workload::EventKind::kArrive, 5.0, 1));
  }
  const std::size_t first = recovery::parse_journal(journal).records.size();
  recovery::JournalWriter w(journal, first);
  for (std::size_t i = 0; i < doctored.size(); ++i) {
    w.event_begin(1 + i, doctored[i]);
    w.event_end(1 + i, doctored[i].time, 0);
  }
  return {std::move(journal), first};
}

TEST(RecoveryTest, ReArriveOfALiveKeyIsRefused) {
  // Arrive key 1 at t 5 and t 6, depart key 1 at t 3: replayed as it
  // stands, the second arrive would overwrite the first tenant's live
  // entry and the depart would release only the second.
  const auto [journal, second_arrive] = doctored_journal(
      {key_event(workload::EventKind::kArrive, 6.0, 1),
       key_event(workload::EventKind::kDepart, 3.0, 1)});
  Orchestrator orch(recovery_cluster(), workload::high_level_profile(),
                    recovery_options());
  try {
    (void)recovery::recover(orch, journal);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "journal record " +
                                       std::to_string(second_arrive) + ":"))
        << e.what();
    EXPECT_TRUE(contains(e.what(), "tenant key 1, which is already live"))
        << e.what();
  }
}

TEST(RecoveryTest, EventEarlierThanTheOneBeforeIsRefused) {
  const auto [journal, depart] =
      doctored_journal({key_event(workload::EventKind::kDepart, 3.0, 1)});
  Orchestrator orch(recovery_cluster(), workload::high_level_profile(),
                    recovery_options());
  try {
    (void)recovery::recover(orch, journal);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(
        contains(e.what(), "journal record " + std::to_string(depart) + ":"))
        << e.what();
    EXPECT_TRUE(contains(e.what(), "earlier than the previous event"))
        << e.what();
  }
  // Equal times stay legal.
  const auto [same_time, unused] =
      doctored_journal({key_event(workload::EventKind::kDepart, 5.0, 1)});
  (void)unused;
  Orchestrator again(recovery_cluster(), workload::high_level_profile(),
                     recovery_options());
  try {
    (void)recovery::recover(again, same_time);
    FAIL() << "expected the doctored fingerprint to diverge";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "replay diverged")) << e.what();
  }
}

TEST(RecoveryTest, RefusedReArriveLeavesStateAndJournalUnchanged) {
  const auto cluster = recovery_cluster();
  std::string journal;
  Orchestrator orch(cluster, workload::high_level_profile(),
                    recovery_options());
  recovery::WalManager wal(orch, journal, {});
  (void)orch.handle(key_event(workload::EventKind::kArrive, 5.0, 1));
  const std::string state = recovery::encode_state(orch.export_state());
  const std::string bytes = journal;
  EXPECT_THROW(
      (void)orch.handle(key_event(workload::EventKind::kArrive, 6.0, 1)),
      std::invalid_argument);
  EXPECT_EQ(recovery::encode_state(orch.export_state()), state);
  EXPECT_EQ(journal, bytes);
}

}  // namespace
