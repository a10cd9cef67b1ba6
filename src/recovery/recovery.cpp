#include "recovery/recovery.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "recovery/checkpoint.h"

namespace hmn::recovery {

RecoveredRun recover(orchestrator::Orchestrator& orch,
                     std::string_view journal) {
  JournalParse parse = parse_journal(journal);
  RecoveredRun out;
  out.next_seq = parse.records.size();
  out.valid_bytes = parse.valid_bytes;
  out.torn_tail = parse.torn_tail;

  // Newest intact checkpoint wins; everything the journal holds before the
  // state it captures is skipped below by event index, not by position.
  const JournalRecord* newest_checkpoint = nullptr;
  for (const JournalRecord& rec : parse.records) {
    if (rec.type == RecordType::kCheckpoint) newest_checkpoint = &rec;
  }
  if (newest_checkpoint != nullptr) {
    orchestrator::Orchestrator::State state =
        decode_state(newest_checkpoint->checkpoint);
    if (state.events_handled != newest_checkpoint->event_index) {
      throw RecoveryError(
          "checkpoint header claims " +
          std::to_string(newest_checkpoint->event_index) +
          " events but its state encodes " +
          std::to_string(state.events_handled));
    }
    if (state.run_fingerprint != newest_checkpoint->fingerprint) {
      throw RecoveryError("checkpoint fingerprint mismatch: header says " +
                          std::to_string(newest_checkpoint->fingerprint) +
                          ", state says " +
                          std::to_string(state.run_fingerprint));
    }
    out.used_checkpoint = true;
    out.checkpoint_event_index = state.events_handled;
    try {
      orch.restore_state(std::move(state));
    } catch (const std::invalid_argument& e) {
      // Structurally valid bytes whose semantics the orchestrator refuses
      // (e.g. aggregates the mappings don't back) are a recovery failure.
      throw RecoveryError(std::string("checkpoint state rejected: ") +
                          e.what());
    }
  }

  // Replay complete groups in order.  A group is (begin, matching end);
  // txn records inside it are observability only — the fingerprint at the
  // end vouches for every decision the re-handled event produced.
  std::optional<workload::TenantEvent> pending_event;
  std::uint64_t pending_index = 0;
  std::size_t pending_record = 0;
  std::optional<double> previous_time;  // of the last EVENT_BEGIN
  for (std::size_t i = 0; i < parse.records.size(); ++i) {
    const JournalRecord& rec = parse.records[i];
    switch (rec.type) {
      case RecordType::kEventBegin:
        if (pending_event.has_value() &&
            rec.event_index > orch.events_handled()) {
          throw RecoveryError(
              "journal record " + std::to_string(i) + ": event group " +
              std::to_string(pending_index) +
              " was never closed before group " +
              std::to_string(rec.event_index) + " began");
        }
        // Events are handled in time order, as read_trace demands of a
        // trace; equal times stay legal.
        if (previous_time.has_value() && rec.event.time < *previous_time) {
          throw RecoveryError(
              "journal record " + std::to_string(i) + ": event time " +
              std::to_string(rec.event.time) +
              " is earlier than the previous event's " +
              std::to_string(*previous_time));
        }
        previous_time = rec.event.time;
        pending_event = rec.event;
        pending_index = rec.event_index;
        pending_record = i;
        break;
      case RecordType::kEventEnd: {
        if (rec.event_index < orch.events_handled()) {
          // Covered by the checkpoint already; nothing to replay.
          pending_event.reset();
          break;
        }
        if (!pending_event.has_value() || pending_index != rec.event_index) {
          throw RecoveryError("journal record " + std::to_string(i) +
                              ": EVENT_END for group " +
                              std::to_string(rec.event_index) +
                              " without its EVENT_BEGIN");
        }
        if (rec.event_index != orch.events_handled()) {
          throw RecoveryError(
              "journal record " + std::to_string(i) + ": group " +
              std::to_string(rec.event_index) +
              " does not follow the recovered state (expected group " +
              std::to_string(orch.events_handled()) + ")");
        }
        try {
          orch.handle(*pending_event);
        } catch (const std::invalid_argument& e) {
          throw RecoveryError("journal record " +
                              std::to_string(pending_record) +
                              ": event refused: " + e.what());
        }
        pending_event.reset();
        ++out.replayed_events;
        if (orch.run_fingerprint() != rec.fingerprint) {
          throw RecoveryError(
              "replay diverged at event " + std::to_string(rec.event_index) +
              ": journal fingerprint " + std::to_string(rec.fingerprint) +
              " != replayed " + std::to_string(orch.run_fingerprint()) +
              " (different binary, options, or a tampered journal)");
        }
        break;
      }
      case RecordType::kTxn:
      case RecordType::kCheckpoint:
        break;
    }
  }
  // A pending group without its END marker is the crash's half-finished
  // event: its mutations died in memory, so it is deliberately dropped and
  // the caller re-feeds the event itself.
  out.next_event_index = orch.events_handled();
  return out;
}

}  // namespace hmn::recovery
