// The write-ahead journal: crash consistency for the orchestrator.
//
// Every event the orchestrator handles becomes one *group* of CRC-framed
// binary records (io/binfmt) appended to a byte buffer the caller owns
// (typically backing a file; the harnesses keep it in memory so a "crash"
// is just destroying the orchestrator object):
//
//   EVENT_BEGIN(index, full event payload)   -- write-ahead marker
//   TXN(kind, time, key, detail)*            -- one per committed mutation
//   EVENT_END(index, time, fingerprint)      -- group commit marker
//
// plus, every checkpoint_every_events events, a CHECKPOINT record carrying
// the complete serialized orchestrator state (recovery/checkpoint.h).
// EVENT_BEGIN embeds the whole TenantEvent in the bytes of a trace's event
// frame (io::put_event), and decodes it with the trace reader's rules
// (io::take_event), so recovery needs no external trace and refuses every
// event a trace refuses: restore the newest intact checkpoint, then
// re-handle the event of every *complete* group after it.  A group without
// its END marker is a crash artifact and is discarded — its in-memory
// mutations died with the process, so dropping it is exactly consistent.
//
// Crash injection is built into the writer, not bolted on: arm_crash(seq,
// torn_seed) makes the append of record `seq` persist only a torn prefix
// of its frame (torn_seed % (frame size + 1) bytes) and then throw
// CrashError, which is precisely what a power cut mid-write leaves on
// disk.  Recovery's frame scanner classifies that torn tail and truncates
// it; the same scanner turns *mid-stream* damage (bit rot, a bad sector)
// into a loud RecoveryError instead.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "orchestrator/orchestrator.h"
#include "workload/churn.h"
#include "workload/crashes.h"

namespace hmn::recovery {

/// Unrecoverable journal damage or replay divergence.  Always descriptive:
/// what failed, where (byte offset / record seq), and why.
class RecoveryError : public std::runtime_error {
 public:
  explicit RecoveryError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by an armed JournalWriter at its designated crash site, after
/// persisting the torn prefix.  The harness treats it as process death:
/// the orchestrator and writer objects are abandoned and a fresh pair is
/// recovered from the journal bytes.
class CrashError : public std::runtime_error {
 public:
  CrashError(std::uint64_t seq, std::size_t persisted_bytes,
             std::size_t frame_bytes)
      : std::runtime_error("injected crash at journal record " +
                           std::to_string(seq) + " (" +
                           std::to_string(persisted_bytes) + "/" +
                           std::to_string(frame_bytes) +
                           " frame bytes persisted)"),
        seq_(seq),
        persisted_bytes_(persisted_bytes) {}

  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::size_t persisted_bytes() const {
    return persisted_bytes_;
  }

 private:
  std::uint64_t seq_;
  std::size_t persisted_bytes_;
};

enum class RecordType : std::uint8_t {
  kEventBegin = 1,
  kTxn = 2,
  kEventEnd = 3,
  kCheckpoint = 4,
};

[[nodiscard]] constexpr const char* to_string(RecordType t) {
  switch (t) {
    case RecordType::kEventBegin: return "event-begin";
    case RecordType::kTxn: return "txn";
    case RecordType::kEventEnd: return "event-end";
    case RecordType::kCheckpoint: return "checkpoint";
  }
  return "?";
}

/// One decoded journal record.  Which fields are meaningful depends on
/// `type` (see the grammar above); `checkpoint` holds the still-encoded
/// state payload — recovery decodes only the newest one it needs.
struct JournalRecord {
  RecordType type = RecordType::kTxn;
  std::uint64_t event_index = 0;            // begin / end / checkpoint
  workload::TenantEvent event;              // begin
  orchestrator::TxnRecord txn;              // txn
  double time = 0.0;                        // end
  std::uint64_t fingerprint = 0;            // end / checkpoint
  std::string checkpoint;                   // checkpoint: encoded state
};

/// Appends framed records to a caller-owned buffer, one frame per record,
/// with optional one-shot crash injection.  `start_seq` continues the
/// record numbering of a journal being resumed after recovery.
class JournalWriter {
 public:
  explicit JournalWriter(std::string& buffer, std::uint64_t start_seq = 0)
      : out_(&buffer), seq_(start_seq) {}

  /// Arms a one-shot crash at the append of record `record_seq`.  A seq
  /// already written (< next_seq()) never fires.
  void arm_crash(std::uint64_t record_seq, std::uint64_t torn_seed) {
    armed_ = true;
    crash_seq_ = record_seq;
    torn_seed_ = torn_seed;
  }

  /// Sequence number the next appended record will get == records written
  /// so far (plus start_seq).
  [[nodiscard]] std::uint64_t next_seq() const { return seq_; }

  void event_begin(std::uint64_t event_index,
                   const workload::TenantEvent& ev);
  void txn(const orchestrator::TxnRecord& txn);
  void event_end(std::uint64_t event_index, double time,
                 std::uint64_t fingerprint);
  /// `events_handled` is the export-time Orchestrator::events_handled();
  /// `encoded_state` comes from recovery::encode_state.
  void checkpoint(std::uint64_t events_handled, std::uint64_t fingerprint,
                  std::string_view encoded_state);

 private:
  void append(std::string_view payload);

  std::string* out_;
  std::uint64_t seq_;
  bool armed_ = false;
  std::uint64_t crash_seq_ = 0;
  std::uint64_t torn_seed_ = 0;
};

/// A fully scanned journal: every intact record in order, plus what the
/// frame scan learned about the tail.
struct JournalParse {
  std::vector<JournalRecord> records;
  /// Byte offset just past the last intact frame — truncate the journal
  /// here before appending further records.
  std::size_t valid_bytes = 0;
  /// The final frame was torn mid-append (expected crash artifact).
  bool torn_tail = false;
};

/// Parses a journal byte stream.  A torn tail is truncated and reported;
/// mid-stream corruption or a malformed record payload throws
/// RecoveryError with the byte offset and cause.
[[nodiscard]] JournalParse parse_journal(std::string_view data);

/// Renders a journal as JSONL for humans — one object per record, with a
/// final {"type":"torn-tail",...} line when the tail was torn.  An
/// EVENT_BEGIN line ends with "trace_event", the event's object as
/// io::event_json writes it on a trace's readable view.  Checkpoint
/// records render as size + metadata, not the full state.  Throws
/// RecoveryError exactly where parse_journal would.
[[nodiscard]] std::string journal_to_jsonl(std::string_view data);

struct WalOptions {
  /// Append a checkpoint after every N-th event (0 = journal only, never
  /// checkpoint).  Smaller N bounds replay work tighter; each checkpoint
  /// costs O(committed state) journal bytes.
  std::uint64_t checkpoint_every_events = 64;
};

/// Journal-keeper for one orchestrator: implements the TxnObserver
/// callbacks by appending the matching journal records, and cuts a
/// checkpoint every checkpoint_every_events events.  Installs itself as
/// the orchestrator's observer on construction and detaches on
/// destruction (the orchestrator must outlive it or be destroyed with
/// it, as the chaos harness does).
class WalManager final : public orchestrator::TxnObserver {
 public:
  /// Resuming after recovery: pass the recovered journal buffer (already
  /// truncated to valid_bytes) and RecoveredRun::next_seq.
  WalManager(orchestrator::Orchestrator& orch, std::string& journal,
             WalOptions opts = {}, std::uint64_t start_seq = 0);
  ~WalManager() override;

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// One-shot crash injection (see JournalWriter::arm_crash).
  void arm_crash(const workload::CrashPoint& point) {
    writer_.arm_crash(point.record_seq, point.torn_seed);
  }

  [[nodiscard]] std::uint64_t next_seq() const { return writer_.next_seq(); }

  void on_event_begin(std::uint64_t event_index,
                      const workload::TenantEvent& ev) override;
  void on_txn(const orchestrator::TxnRecord& txn) override;
  void on_event_end(std::uint64_t event_index, double time,
                    std::uint64_t fingerprint) override;

 private:
  orchestrator::Orchestrator* orch_;
  JournalWriter writer_;
  WalOptions opts_;
};

}  // namespace hmn::recovery
