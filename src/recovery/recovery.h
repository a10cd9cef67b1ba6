// Crash recovery: rebuild a crashed orchestrator from its journal.
//
// recover() takes a freshly constructed orchestrator (same cluster,
// profile, heuristic pool, and options as the crashed one — the control
// plane's static configuration is the operator's job, the journal carries
// only dynamic state) and the journal bytes the crash left behind, and
// restores the exact pre-crash trajectory:
//
//   1. scan + parse the journal (a torn tail is truncated; mid-stream
//      corruption is a loud RecoveryError — bit rot must never be
//      "recovered" silently);
//   2. restore the newest intact CHECKPOINT record, if any;
//   3. re-handle the event of every *complete* [EVENT_BEGIN .. EVENT_END]
//      group past the checkpoint, verifying after each that the replayed
//      running fingerprint equals the journaled one — replay divergence
//      (wrong binary, wrong options, tampered journal) aborts recovery
//      rather than continuing from a silently different state;
//   4. discard the trailing group without an END marker: its in-memory
//      mutations died with the process, so the journal tail and the
//      recovered state agree exactly.
//
// Work is O(checkpoint size + journal tail), independent of run length —
// the E18 gate measures exactly that bound.
#pragma once

#include <cstdint>
#include <string_view>

#include "orchestrator/orchestrator.h"
#include "recovery/journal.h"

namespace hmn::recovery {

struct RecoveredRun {
  /// Index of the next event to feed — everything before it is replayed.
  std::uint64_t next_event_index = 0;
  /// Sequence number for the next journal record (JournalWriter/WalManager
  /// start_seq when resuming this journal).
  std::uint64_t next_seq = 0;
  /// Truncate the journal buffer to this length before resuming appends.
  std::size_t valid_bytes = 0;
  bool torn_tail = false;           // a torn final frame was dropped
  bool used_checkpoint = false;     // a checkpoint seeded the replay
  std::uint64_t checkpoint_event_index = 0;  // events covered by it
  std::uint64_t replayed_events = 0;         // groups re-handled from the tail
};

/// Recovers `orch` (freshly constructed, nothing handled yet) from
/// `journal`.  Throws RecoveryError on corruption, malformed records, an
/// EVENT_BEGIN earlier in time than the one before it, an event the
/// orchestrator refuses (an arrive for a key it still holds), or replay
/// divergence; on return the orchestrator is byte-equivalent to the
/// uninterrupted run through `next_event_index` events.
[[nodiscard]] RecoveredRun recover(orchestrator::Orchestrator& orch,
                                   std::string_view journal);

}  // namespace hmn::recovery
