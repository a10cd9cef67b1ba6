// Record/replay of churn traces (workload::ChurnTrace) as io/binfmt frames.
//
// A trace is a stream of CRC-framed records: one header frame, then one
// frame per event.
//
//   header   [bytes "churn-trace"][u32 version][u8 mttf_dist]
//            [f64 lo, f64 hi] x 5 profile ranges (proc_mips, mem_mb,
//            stor_gb, link_bw_mbps, link_lat_ms)
//            [f64 critical_link_fraction]
//   event    put_event's bytes — the same bytes a journal EVENT_BEGIN
//            record carries after its type byte and event index
//
// Version 4 is the only version written or read; any other is refused with
// a message naming it.  Doubles travel as IEEE-754 bit patterns and seeds
// as u64, so read(write(t)) == t and write(read(b)) == b for any bytes b
// this writer produced: a recorded trace replays byte-for-byte.
//
// take_event is the one event decoder: read_trace and recovery's journal
// parser both use it, so a journal refuses every event a trace refuses.
// Counts are bounded only by 2^32; a count below that can still ask for
// more memory than the machine has.
//
// JSONL is output only: trace_to_jsonl renders the readable view, a
// header line and one io::event_json object per event:
//
//   {"type":"churn-trace","version":4,"mttf_dist":"exponential","profile":{...}}
//   {"t":0.31,"ev":"arrive","tenant":0,"guests":8,"density":0.2,"seed":"...",
//    "tier":"gold","replica_n":3,"replica_k":2}
//   {"t":2.87,"ev":"grow","tenant":0,"add_guests":2,"add_links":1,"seed":"..."}
//   {"t":9.75,"ev":"depart","tenant":0}
//   {"t":4.02,"ev":"blast-fail","element":40,"hosts":[0,1,2],"links":[0,1,2,3]}
//   {"t":6.10,"ev":"power-fail","element":1,"hosts":[1,5],"links":[0,4]}
//
// The tier and replica members are written only when non-default, seeds
// as decimal strings (a JSON number would lose bits above 2^53).  A power
// event's `element` is a *power-domain id*, not a node id.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "io/binfmt.h"
#include "workload/churn.h"

namespace hmn::io {

/// Appends `ev`'s binary encoding: every TenantEvent field, in order.
void put_event(std::string& out, const workload::TenantEvent& ev);

/// Reads one event as put_event wrote it and refuses, with the reason in
/// `why`, a truncated field or an event that breaks a trace rule: kind or
/// tier out of range; a negative or non-finite time; a count of 2^32 or
/// more; an arrive density outside [0, 1]; a replica spec other than 0/0
/// or n >= 2 with 1 <= k <= n; a field the event's kind does not use that
/// is not at its default; group members not strictly ascending; a power
/// event with an empty group.
[[nodiscard]] std::optional<workload::TenantEvent> take_event(
    BinReader& r, std::string& why);

/// Encodes a trace: the header frame, then one frame per event.
[[nodiscard]] std::string write_trace(const workload::ChurnTrace& trace);

/// The readable view of a trace: a JSONL header line, then one
/// event_json line per event, each '\n'-terminated.
[[nodiscard]] std::string trace_to_jsonl(const workload::ChurnTrace& trace);

/// One event as the JSON object trace_to_jsonl puts on its line, without
/// the newline.  The journal's readable view (recovery::journal_to_jsonl)
/// embeds the same object in each EVENT_BEGIN line.
[[nodiscard]] std::string event_json(const workload::TenantEvent& ev);

struct TraceParseError {
  std::string message;  // names the offending frame
};

/// Decodes a trace.  Refuses damaged framing (a torn tail included), a
/// missing or malformed header, any event take_event refuses, trailing
/// bytes in a frame, an event earlier than the one before it, and a
/// second arrive for one tenant.
[[nodiscard]] std::variant<workload::ChurnTrace, TraceParseError> read_trace(
    std::string_view bytes);

/// Throwing wrapper (std::runtime_error) for contexts where a malformed
/// trace is fatal.
[[nodiscard]] workload::ChurnTrace read_trace_or_throw(std::string_view bytes);

/// File convenience wrappers.  save_trace returns false on I/O failure;
/// load_trace returns nullopt on I/O *or* parse failure.
bool save_trace(const std::filesystem::path& path,
                const workload::ChurnTrace& trace);
[[nodiscard]] std::optional<workload::ChurnTrace> load_trace(
    const std::filesystem::path& path);

}  // namespace hmn::io
