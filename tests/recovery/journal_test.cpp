// The write-ahead journal layer: record grammar round-trips, the WalManager
// observer journals a live run with the promised structure, checkpoints
// land on cadence, the JSONL converter renders every record, and the
// checkpoint codec restores a bit-identical orchestrator.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/binfmt.h"
#include "io/trace.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "testing/fixtures.h"
#include "recovery/harness.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using orchestrator::Orchestrator;
using recovery::JournalParse;
using recovery::JournalRecord;
using recovery::JournalWriter;
using recovery::RecordType;
using recovery::RecoveryError;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

workload::TenantEvent sample_event() {
  workload::TenantEvent ev;
  ev.time = 2.25;
  ev.kind = workload::EventKind::kArrive;
  ev.tenant = 42;
  ev.guest_count = 5;
  ev.density = 0.375;
  ev.seed = 0xFEEDFACE12345678ull;
  ev.sla_tier = model::SlaTier::kGold;
  ev.replica_n = 3;
  ev.replica_k = 2;
  return ev;
}

TEST(JournalTest, RecordsRoundTripThroughParse) {
  std::string journal;
  JournalWriter w(journal);
  const auto ev = sample_event();
  w.event_begin(0, ev);
  orchestrator::TxnRecord txn;
  txn.kind = orchestrator::TxnKind::kAdmitCommit;
  txn.time = 2.25;
  txn.key = 42;
  txn.detail = 0xABCDABCDull;
  w.txn(txn);
  w.event_end(0, 2.25, 0x1234u);
  w.checkpoint(1, 0x1234u, "opaque-state-bytes");
  EXPECT_EQ(w.next_seq(), 4u);

  const JournalParse parse = recovery::parse_journal(journal);
  EXPECT_FALSE(parse.torn_tail);
  EXPECT_EQ(parse.valid_bytes, journal.size());
  ASSERT_EQ(parse.records.size(), 4u);

  EXPECT_EQ(parse.records[0].type, RecordType::kEventBegin);
  EXPECT_EQ(parse.records[0].event_index, 0u);
  EXPECT_EQ(parse.records[0].event, ev);  // full embedded event survives

  EXPECT_EQ(parse.records[1].type, RecordType::kTxn);
  EXPECT_EQ(parse.records[1].txn.kind, orchestrator::TxnKind::kAdmitCommit);
  EXPECT_EQ(parse.records[1].txn.key, 42u);
  EXPECT_EQ(parse.records[1].txn.detail, 0xABCDABCDull);

  EXPECT_EQ(parse.records[2].type, RecordType::kEventEnd);
  EXPECT_EQ(parse.records[2].fingerprint, 0x1234u);

  EXPECT_EQ(parse.records[3].type, RecordType::kCheckpoint);
  EXPECT_EQ(parse.records[3].event_index, 1u);
  EXPECT_EQ(parse.records[3].checkpoint, "opaque-state-bytes");
}

TEST(JournalTest, MalformedRecordPayloadIsDescriptive) {
  // A frame whose CRC passes but whose payload is not a record: version
  // skew, not bit rot — the error names the record and the defect.
  std::string journal;
  io::append_frame(journal, "\x09garbage");
  try {
    (void)recovery::parse_journal(journal);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "record 0")) << e.what();
    EXPECT_TRUE(contains(e.what(), "unknown record type 9")) << e.what();
  }
}

TEST(JournalTest, ArmedCrashPersistsTornPrefixAndThrows) {
  std::string journal;
  JournalWriter w(journal);
  w.event_end(0, 1.0, 7);
  const std::size_t intact = journal.size();

  JournalWriter armed(journal, w.next_seq());
  armed.arm_crash(/*record_seq=*/1, /*torn_seed=*/5);
  try {
    armed.event_end(1, 2.0, 8);
    FAIL() << "expected CrashError";
  } catch (const recovery::CrashError& e) {
    EXPECT_EQ(e.seq(), 1u);
    EXPECT_EQ(e.persisted_bytes(), 5u);
  }
  EXPECT_EQ(journal.size(), intact + 5);

  // The torn tail scans away; the intact prefix survives.
  const JournalParse parse = recovery::parse_journal(journal);
  EXPECT_TRUE(parse.torn_tail);
  EXPECT_EQ(parse.valid_bytes, intact);
  ASSERT_EQ(parse.records.size(), 1u);
}

TEST(JournalTest, WalManagerJournalsALiveRunWithGroupStructure) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0xE18u);
  ASSERT_GT(trace.events.size(), 30u);

  std::string journal;
  recovery::WalOptions wopts;
  wopts.checkpoint_every_events = 8;
  Orchestrator orch(cluster, trace.profile, recovery_options());
  recovery::WalManager wal(orch, journal, wopts);
  for (const auto& ev : trace.events) orch.handle(ev);

  const JournalParse parse = recovery::parse_journal(journal);
  EXPECT_FALSE(parse.torn_tail);

  // Grammar: every event is one BEGIN .. END group; indices are dense;
  // the END fingerprint chain is non-decreasing in information (final one
  // matches the live orchestrator); checkpoints land on the cadence.
  std::uint64_t expect_index = 0;
  bool open = false;
  std::size_t checkpoints = 0;
  std::uint64_t last_fingerprint = 0;
  for (const JournalRecord& rec : parse.records) {
    switch (rec.type) {
      case RecordType::kEventBegin:
        EXPECT_FALSE(open);
        EXPECT_EQ(rec.event_index, expect_index);
        open = true;
        break;
      case RecordType::kEventEnd:
        EXPECT_TRUE(open);
        EXPECT_EQ(rec.event_index, expect_index);
        open = false;
        ++expect_index;
        last_fingerprint = rec.fingerprint;
        break;
      case RecordType::kTxn:
        EXPECT_TRUE(open);  // txns only inside a group
        break;
      case RecordType::kCheckpoint:
        EXPECT_FALSE(open);  // checkpoints between groups
        EXPECT_EQ(rec.event_index % wopts.checkpoint_every_events, 0u);
        EXPECT_EQ(rec.event_index, expect_index);
        ++checkpoints;
        break;
    }
  }
  EXPECT_FALSE(open);
  EXPECT_EQ(expect_index, trace.events.size());
  EXPECT_EQ(checkpoints,
            trace.events.size() / wopts.checkpoint_every_events);
  EXPECT_EQ(last_fingerprint, orch.run_fingerprint());
  EXPECT_NE(orch.run_fingerprint(), orchestrator::kFingerprintSeed);
}

TEST(JournalTest, JsonlRendersEveryRecordAndTornTail) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0xE18u);
  std::string journal;
  recovery::WalOptions wopts;
  wopts.checkpoint_every_events = 16;
  {
    Orchestrator orch(cluster, trace.profile, recovery_options());
    recovery::WalManager wal(orch, journal, wopts);
    for (const auto& ev : trace.events) orch.handle(ev);
  }
  const JournalParse parse = recovery::parse_journal(journal);

  const std::string jsonl = recovery::journal_to_jsonl(journal);
  // One line per record, every record type rendered.
  std::size_t lines = 0;
  for (const char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, parse.records.size());
  EXPECT_TRUE(contains(jsonl, "\"type\":\"event-begin\""));
  EXPECT_TRUE(contains(jsonl, "\"type\":\"txn\""));
  EXPECT_TRUE(contains(jsonl, "\"type\":\"event-end\""));
  EXPECT_TRUE(contains(jsonl, "\"type\":\"checkpoint\""));
  EXPECT_TRUE(contains(jsonl, "\"state_bytes\":"));

  // A torn journal renders the torn-tail marker with the byte accounting.
  std::string torn = journal;
  torn += "\x20\x00\x00\x00half-a-frame";
  const std::string torn_jsonl = recovery::journal_to_jsonl(torn);
  EXPECT_TRUE(contains(torn_jsonl, "\"type\":\"torn-tail\"")) << torn_jsonl;
  EXPECT_TRUE(contains(torn_jsonl,
                       "\"valid_bytes\":" + std::to_string(journal.size())));
}

TEST(JournalTest, EventBeginLinesRebuildTheTrace) {
  // A trace is the EVENT_BEGIN subsequence of a journal: a header frame
  // plus the journal's decoded EVENT_BEGIN events is the journaled trace,
  // and each EVENT_BEGIN carries its trace event frame's bytes.
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0xE18u);
  std::string journal;
  {
    Orchestrator orch(cluster, trace.profile, recovery_options());
    recovery::WalManager wal(orch, journal, {});
    for (const auto& ev : trace.events) orch.handle(ev);
  }
  std::string rebuilt = io::write_trace({trace.profile, trace.mttf_dist, {}});
  for (const JournalRecord& rec : recovery::parse_journal(journal).records) {
    if (rec.type != RecordType::kEventBegin) continue;
    std::string payload;
    io::put_event(payload, rec.event);
    io::append_frame(rebuilt, payload);
  }
  const std::string recorded = io::write_trace(trace);
  EXPECT_EQ(rebuilt, recorded);
  const workload::ChurnTrace read = io::read_trace_or_throw(rebuilt);
  EXPECT_EQ(read.events, trace.events);
  EXPECT_EQ(read.mttf_dist, trace.mttf_dist);

  // Byte for byte: an EVENT_BEGIN payload past its type byte and u64
  // index is the matching trace frame's payload.
  io::FrameScan trace_frames;
  io::FrameScan journal_frames;
  ASSERT_FALSE(io::scan_frames(recorded, trace_frames).has_value());
  ASSERT_FALSE(io::scan_frames(journal, journal_frames).has_value());
  std::size_t next = 1;  // frame 0 is the header
  for (const std::string_view payload : journal_frames.frames) {
    if (payload[0] != static_cast<char>(RecordType::kEventBegin)) continue;
    ASSERT_LT(next, trace_frames.frames.size());
    EXPECT_EQ(payload.substr(9), trace_frames.frames[next++]);
  }
  EXPECT_EQ(next, trace_frames.frames.size());

  // The readable views agree: each EVENT_BEGIN line's "trace_event" object
  // is the matching line of the trace's JSONL view.
  std::istringstream view(io::trace_to_jsonl(trace));
  std::string line;
  std::getline(view, line);  // the header line
  const std::string key = "\"trace_event\":";
  std::istringstream jsonl(recovery::journal_to_jsonl(journal));
  for (std::string record; std::getline(jsonl, record);) {
    if (!contains(record, "\"type\":\"event-begin\"")) continue;
    const std::size_t at = record.find(key);
    ASSERT_NE(at, std::string::npos) << record;
    ASSERT_TRUE(std::getline(view, line));
    // The object runs from the key to the record's own closing brace.
    const std::size_t begin = at + key.size();
    EXPECT_EQ(record.substr(begin, record.size() - 1 - begin), line);
  }
  EXPECT_FALSE(std::getline(view, line)) << "unjournaled event: " << line;
}

TEST(CheckpointTest, StateRoundTripsBitIdentical) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0xC0DEu);
  // Stop mid-trace so the exported state is rich: live tenants, queue
  // entries, failure masks all populated.
  Orchestrator orch(cluster, trace.profile, recovery_options());
  for (std::size_t i = 0; i < trace.events.size() * 2 / 3; ++i) {
    orch.handle(trace.events[i]);
  }
  ASSERT_GT(orch.tenancy().tenant_count(), 0u);

  const std::string encoded = recovery::encode_state(orch.export_state());
  // decode -> restore into a fresh orchestrator -> re-export: the encoded
  // bytes must be identical, which covers every field the codec carries.
  Orchestrator restored(cluster, trace.profile, recovery_options());
  restored.restore_state(recovery::decode_state(encoded));
  EXPECT_EQ(recovery::encode_state(restored.export_state()), encoded);
  EXPECT_EQ(restored.run_fingerprint(), orch.run_fingerprint());
  EXPECT_EQ(restored.events_handled(), orch.events_handled());
  EXPECT_EQ(restored.tenancy().tenant_count(), orch.tenancy().tenant_count());

  // And the restored orchestrator keeps *running* identically: feeding the
  // same tail to both produces the same fingerprint.
  workload::TenantEvent probe;
  probe.time = trace.events.empty() ? 1.0 : trace.events.back().time + 1.0;
  probe.kind = workload::EventKind::kArrive;
  probe.tenant = 9999;
  probe.guest_count = 2;
  probe.density = 0.0;
  probe.seed = 77;
  orch.handle(probe);
  restored.handle(probe);
  EXPECT_EQ(restored.run_fingerprint(), orch.run_fingerprint());
  // The restored report only retains post-restore decisions; their
  // canonical form must equal the tail of the uninterrupted signature.
  const std::string full = orch.report().decision_signature();
  const std::string tail = restored.report().decision_signature();
  ASSERT_LE(tail.size(), full.size());
  EXPECT_EQ(full.substr(full.size() - tail.size()), tail);
}

TEST(CheckpointTest, CorruptStateFailsLoudly) {
  const auto cluster = recovery_cluster();
  const auto trace = recovery_trace(cluster, 0xC0DEu);
  Orchestrator orch(cluster, trace.profile, recovery_options());
  for (std::size_t i = 0; i < trace.events.size() / 2; ++i) {
    orch.handle(trace.events[i]);
  }
  const std::string encoded = recovery::encode_state(orch.export_state());

  // Truncation at any of a few depths: descriptive, never UB.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                encoded.size() / 2, encoded.size() - 1}) {
    EXPECT_THROW((void)recovery::decode_state(encoded.substr(0, cut)),
                 RecoveryError)
        << "cut at " << cut;
  }
  // A wrong version byte is refused before anything is interpreted; so is
  // version 2, whose layout still carried per-link availability.
  for (const char version : {char(2), char(99)}) {
    std::string wrong = encoded;
    wrong[0] = version;
    try {
      (void)recovery::decode_state(wrong);
      FAIL() << "expected RecoveryError";
    } catch (const RecoveryError& e) {
      EXPECT_TRUE(contains(e.what(), "version")) << e.what();
    }
  }
  // Trailing junk means encoder/decoder skew; also refused.
  EXPECT_THROW((void)recovery::decode_state(encoded + "x"), RecoveryError);
}

}  // namespace
