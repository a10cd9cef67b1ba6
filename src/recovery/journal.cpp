#include "recovery/journal.h"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "io/binfmt.h"
#include "io/trace.h"
#include "recovery/checkpoint.h"

namespace hmn::recovery {
namespace {

[[noreturn]] void fail_record(std::size_t index, const std::string& what) {
  throw RecoveryError("journal record " + std::to_string(index) +
                      " is malformed: " + what);
}

template <typename T>
T need(std::optional<T> v, std::size_t index, const char* field) {
  if (!v.has_value()) {
    fail_record(index, std::string("truncated field '") + field + "'");
  }
  return *std::move(v);
}

JournalRecord decode_record(std::string_view payload, std::size_t index) {
  io::BinReader r(payload);
  JournalRecord rec;
  const std::uint8_t type = need(r.take_u8(), index, "type");
  switch (type) {
    case static_cast<std::uint8_t>(RecordType::kEventBegin): {
      rec.type = RecordType::kEventBegin;
      rec.event_index = need(r.take_u64(), index, "event_index");
      std::string why;
      std::optional<workload::TenantEvent> ev = io::take_event(r, why);
      if (!ev) fail_record(index, why);
      rec.event = *std::move(ev);
      break;
    }
    case static_cast<std::uint8_t>(RecordType::kTxn): {
      rec.type = RecordType::kTxn;
      const std::uint8_t kind = need(r.take_u8(), index, "txn.kind");
      if (kind < static_cast<std::uint8_t>(
                     orchestrator::TxnKind::kAdmitCommit) ||
          kind > static_cast<std::uint8_t>(
                     orchestrator::TxnKind::kQueuePreempt)) {
        fail_record(index,
                    "txn kind " + std::to_string(kind) + " out of range");
      }
      rec.txn.kind = static_cast<orchestrator::TxnKind>(kind);
      rec.txn.time = need(r.take_f64(), index, "txn.time");
      rec.txn.key = need(r.take_u32(), index, "txn.key");
      rec.txn.detail = need(r.take_u64(), index, "txn.detail");
      break;
    }
    case static_cast<std::uint8_t>(RecordType::kEventEnd):
      rec.type = RecordType::kEventEnd;
      rec.event_index = need(r.take_u64(), index, "event_index");
      rec.time = need(r.take_f64(), index, "time");
      rec.fingerprint = need(r.take_u64(), index, "fingerprint");
      break;
    case static_cast<std::uint8_t>(RecordType::kCheckpoint):
      rec.type = RecordType::kCheckpoint;
      rec.event_index = need(r.take_u64(), index, "event_index");
      rec.fingerprint = need(r.take_u64(), index, "fingerprint");
      rec.checkpoint =
          std::string(need(r.take_bytes(), index, "checkpoint state"));
      break;
    default:
      fail_record(index,
                  "unknown record type " + std::to_string(type));
  }
  if (!r.exhausted()) {
    fail_record(index, "trailing bytes after a complete record");
  }
  return rec;
}

}  // namespace

void JournalWriter::append(std::string_view payload) {
  const std::uint64_t seq = seq_++;
  if (armed_ && seq == crash_seq_) {
    armed_ = false;
    // A power cut persists some prefix of the frame — possibly none of it,
    // possibly all of it (the crash then hit after the write but before
    // the next one).  torn_seed picks which, deterministically.
    const std::string frame = io::encode_frame(payload);
    const std::size_t persisted = torn_seed_ % (frame.size() + 1);
    out_->append(frame.data(), persisted);
    throw CrashError(seq, persisted, frame.size());
  }
  io::append_frame(*out_, payload);
}

void JournalWriter::event_begin(std::uint64_t event_index,
                                const workload::TenantEvent& ev) {
  std::string payload;
  io::put_u8(payload, static_cast<std::uint8_t>(RecordType::kEventBegin));
  io::put_u64(payload, event_index);
  io::put_event(payload, ev);
  append(payload);
}

void JournalWriter::txn(const orchestrator::TxnRecord& txn) {
  std::string payload;
  io::put_u8(payload, static_cast<std::uint8_t>(RecordType::kTxn));
  io::put_u8(payload, static_cast<std::uint8_t>(txn.kind));
  io::put_f64(payload, txn.time);
  io::put_u32(payload, txn.key);
  io::put_u64(payload, txn.detail);
  append(payload);
}

void JournalWriter::event_end(std::uint64_t event_index, double time,
                              std::uint64_t fingerprint) {
  std::string payload;
  io::put_u8(payload, static_cast<std::uint8_t>(RecordType::kEventEnd));
  io::put_u64(payload, event_index);
  io::put_f64(payload, time);
  io::put_u64(payload, fingerprint);
  append(payload);
}

void JournalWriter::checkpoint(std::uint64_t events_handled,
                               std::uint64_t fingerprint,
                               std::string_view encoded_state) {
  std::string payload;
  payload.reserve(encoded_state.size() + 64);
  io::put_u8(payload, static_cast<std::uint8_t>(RecordType::kCheckpoint));
  io::put_u64(payload, events_handled);
  io::put_u64(payload, fingerprint);
  io::put_bytes(payload, encoded_state);
  append(payload);
}

JournalParse parse_journal(std::string_view data) {
  io::FrameScan scan;
  if (const auto err = io::scan_frames(data, scan)) {
    throw RecoveryError("journal corrupted at byte offset " +
                        std::to_string(err->offset) + ": " + err->message);
  }
  JournalParse parse;
  parse.valid_bytes = scan.valid_bytes;
  parse.torn_tail = scan.torn_tail;
  parse.records.reserve(scan.frames.size());
  for (std::size_t i = 0; i < scan.frames.size(); ++i) {
    parse.records.push_back(decode_record(scan.frames[i], i));
  }
  return parse;
}

std::string journal_to_jsonl(std::string_view data) {
  const JournalParse parse = parse_journal(data);
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < parse.records.size(); ++i) {
    const JournalRecord& rec = parse.records[i];
    out += "{\"seq\":" + std::to_string(i) + ",\"type\":\"";
    out += to_string(rec.type);
    out += '"';
    switch (rec.type) {
      case RecordType::kEventBegin:
        out += ",\"event\":" + std::to_string(rec.event_index) +
               ",\"trace_event\":" + io::event_json(rec.event);
        break;
      case RecordType::kTxn:
        std::snprintf(buf, sizeof(buf),
                      ",\"txn\":%d,\"time\":%.17g,\"key\":%u,"
                      "\"detail\":\"%016" PRIx64 "\"",
                      static_cast<int>(rec.txn.kind), rec.txn.time,
                      rec.txn.key, rec.txn.detail);
        out += buf;
        break;
      case RecordType::kEventEnd:
        std::snprintf(buf, sizeof(buf),
                      ",\"event\":%" PRIu64
                      ",\"time\":%.17g,\"fingerprint\":\"%016" PRIx64 "\"",
                      rec.event_index, rec.time, rec.fingerprint);
        out += buf;
        break;
      case RecordType::kCheckpoint:
        std::snprintf(buf, sizeof(buf),
                      ",\"events_handled\":%" PRIu64
                      ",\"fingerprint\":\"%016" PRIx64
                      "\",\"state_bytes\":%zu",
                      rec.event_index, rec.fingerprint,
                      rec.checkpoint.size());
        out += buf;
        break;
    }
    out += "}\n";
  }
  if (parse.torn_tail) {
    out += "{\"type\":\"torn-tail\",\"valid_bytes\":" +
           std::to_string(parse.valid_bytes) + ",\"dropped_bytes\":" +
           std::to_string(data.size() - parse.valid_bytes) + "}\n";
  }
  return out;
}

WalManager::WalManager(orchestrator::Orchestrator& orch, std::string& journal,
                       WalOptions opts, std::uint64_t start_seq)
    : orch_(&orch), writer_(journal, start_seq), opts_(opts) {
  orch_->set_txn_observer(this);
}

WalManager::~WalManager() { orch_->set_txn_observer(nullptr); }

void WalManager::on_event_begin(std::uint64_t event_index,
                                const workload::TenantEvent& ev) {
  writer_.event_begin(event_index, ev);
}

void WalManager::on_txn(const orchestrator::TxnRecord& txn) {
  writer_.txn(txn);
}

void WalManager::on_event_end(std::uint64_t event_index, double time,
                              std::uint64_t fingerprint) {
  writer_.event_end(event_index, time, fingerprint);
  const std::uint64_t every = opts_.checkpoint_every_events;
  if (every != 0 && (event_index + 1) % every == 0) {
    writer_.checkpoint(event_index + 1, fingerprint,
                       encode_state(orch_->export_state()));
  }
}

}  // namespace hmn::recovery
