// JSONL record/replay of churn traces (workload::ChurnTrace).
//
// One JSON object per line.  The first line is a header carrying the
// format version and the guest profile every venv in the trace is drawn
// from; each following line is one tenant event:
//
//   {"type":"churn-trace","version":4,"mttf_dist":"exponential","profile":{...}}
//   {"t":0.31,"ev":"arrive","tenant":0,"guests":8,"density":0.2,"seed":"...",
//    "tier":"gold","replica_n":3,"replica_k":2}
//   {"t":2.87,"ev":"grow","tenant":0,"add_guests":2,"add_links":1,"seed":"..."}
//   {"t":9.75,"ev":"depart","tenant":0}
//   {"t":4.02,"ev":"blast-fail","element":40,"hosts":[0,1,2],"links":[0,1,2,3]}
//   {"t":6.10,"ev":"power-fail","element":1,"hosts":[1,5],"links":[0,4]}
//
// The format is version 4, the only version the writer emits and the only
// one the reader accepts; any other version is refused with a message
// naming it.  Versions 1-3 lack some of the failure, blast, power, tier
// and replica fields above.  The tier and replica fields are written only
// when non-default.  A power event's `element` is a *power-domain id*, not
// a node id.
//
// Seeds are 64-bit and therefore serialized as decimal *strings* — a JSON
// number is a double and silently loses bits above 2^53.  Numbers are
// written with %.17g (exact double round trip), so write(read(s)) == s for
// any s this writer produced: a recorded trace replays byte-for-byte.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "workload/churn.h"

namespace hmn::io {

/// Serializes a trace to JSONL (header line + one line per event, each
/// '\n'-terminated).
[[nodiscard]] std::string write_trace(const workload::ChurnTrace& trace);

/// One event as the JSON object write_trace puts on its line, without the
/// newline.  The journal's readable view (recovery::journal_to_jsonl)
/// embeds the same object in each EVENT_BEGIN line.
[[nodiscard]] std::string event_json(const workload::TenantEvent& ev);

struct TraceParseError {
  std::string message;
  std::size_t line = 0;  // 1-based line number
};

/// Parses a JSONL trace.  Blank lines are ignored; anything else
/// malformed — bad JSON, missing header, unknown event kind — is an error
/// carrying the offending line number.
[[nodiscard]] std::variant<workload::ChurnTrace, TraceParseError> read_trace(
    std::string_view text);

/// Throwing wrapper (std::runtime_error) for contexts where a malformed
/// trace is fatal.
[[nodiscard]] workload::ChurnTrace read_trace_or_throw(std::string_view text);

/// File convenience wrappers.  save_trace returns false on I/O failure;
/// load_trace returns nullopt on I/O *or* parse failure.
bool save_trace(const std::filesystem::path& path,
                const workload::ChurnTrace& trace);
[[nodiscard]] std::optional<workload::ChurnTrace> load_trace(
    const std::filesystem::path& path);

}  // namespace hmn::io
