#include "io/trace.h"

#include <array>
#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "io/json.h"

namespace hmn::io {
namespace {

constexpr std::string_view kTraceTag = "churn-trace";
constexpr std::uint32_t kTraceVersion = 4;

constexpr std::array<const char*, 5> kRangeNames = {
    "proc_mips", "mem_mb", "stor_gb", "link_bw_mbps", "link_lat_ms"};

/// The profile's ranges in kRangeNames order (const or mutable).
template <typename Profile>
auto ranges(Profile& p) {
  return std::array{&p.proc_mips, &p.mem_mb, &p.stor_gb, &p.link_bw_mbps,
                    &p.link_lat_ms};
}

void write_ids(std::string& out, const std::vector<std::uint32_t>& ids) {
  out += '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(ids[i]);
  }
  out += ']';
}

/// Moves a decoded field into `out`; false, naming the field, when the
/// payload ran out before it.
template <typename T>
bool take(std::optional<T> v, T& out, const char* field, std::string& why) {
  if (!v.has_value()) {
    why = std::string("truncated field '") + field + "'";
    return false;
  }
  out = *std::move(v);
  return true;
}

/// A u64 count, refused from 2^32 up: a count that large is damage, and
/// sizing a venv from it would ask for terabytes.
bool take_count(std::optional<std::uint64_t> v, std::size_t& out,
                const char* field, std::string& why) {
  std::uint64_t n = 0;
  if (!take(v, n, field, why)) return false;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    why = std::string("'") + field + "' " + std::to_string(n) +
          " is not below 2^32";
    return false;
  }
  out = static_cast<std::size_t>(n);
  return true;
}

bool is_group_event(workload::EventKind k) {
  return k == workload::EventKind::kBlastFail ||
         k == workload::EventKind::kBlastRecover ||
         k == workload::EventKind::kPowerFail ||
         k == workload::EventKind::kPowerRecover;
}

/// The first field `ev` sets that its kind does not use, or nullptr.  The
/// readable view omits such fields, so an event carrying one is refused
/// rather than replayed with state nobody can see.
const char* stray_field(const workload::TenantEvent& ev) {
  const bool arrive = ev.kind == workload::EventKind::kArrive;
  const bool grow = ev.kind == workload::EventKind::kGrow;
  const bool failure = workload::is_failure_event(ev.kind);
  if (failure && ev.tenant != 0) return "event.tenant";
  if (!arrive && ev.guest_count != 0) return "event.guest_count";
  // Bit pattern, not value: -0.0 is not the default either.
  if (!arrive && std::bit_cast<std::uint64_t>(ev.density) != 0) {
    return "event.density";
  }
  if (!grow && ev.add_guests != 0) return "event.add_guests";
  if (!grow && ev.add_links != 0) return "event.add_links";
  if (!arrive && !grow && ev.seed != 0) return "event.seed";
  if (!failure && ev.element != 0) return "event.element";
  if (!arrive && ev.sla_tier != model::SlaTier::kStandard) {
    return "event.sla_tier";
  }
  if (!arrive && ev.replica_n != 0) return "event.replica_n";
  if (!arrive && ev.replica_k != 0) return "event.replica_k";
  if (!is_group_event(ev.kind) && !ev.group_hosts.empty()) {
    return "event.group_hosts";
  }
  if (!is_group_event(ev.kind) && !ev.group_links.empty()) {
    return "event.group_links";
  }
  return nullptr;
}

bool strictly_ascending(const std::vector<std::uint32_t>& ids,
                        const char* field, std::string& why) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) {
      why = "duplicate or unsorted member " + std::to_string(ids[i]) +
            " in '" + field + "' at offset " + std::to_string(i);
      return false;
    }
  }
  return true;
}

void put_header(std::string& out, const workload::ChurnTrace& trace) {
  put_bytes(out, kTraceTag);
  put_u32(out, kTraceVersion);
  put_u8(out, static_cast<std::uint8_t>(trace.mttf_dist));
  for (const workload::Range* r : ranges(trace.profile)) {
    put_f64(out, r->lo);
    put_f64(out, r->hi);
  }
  put_f64(out, trace.profile.critical_link_fraction);
}

/// Decodes the header frame into `trace`'s profile and MTTF tag.
bool take_header(std::string_view payload, workload::ChurnTrace& trace,
                 std::string& why) {
  BinReader r(payload);
  const std::optional<std::string_view> tag = r.take_bytes();
  if (!tag || *tag != kTraceTag) {
    why = "missing churn-trace header";
    return false;
  }
  std::uint32_t version = 0;
  if (!take(r.take_u32(), version, "header.version", why)) return false;
  if (version != kTraceVersion) {
    why = "unsupported trace version " + std::to_string(version) +
          " (this reader reads only version " +
          std::to_string(kTraceVersion) + ")";
    return false;
  }
  std::uint8_t dist = 0;
  if (!take(r.take_u8(), dist, "header.mttf_dist", why)) return false;
  if (dist >
      static_cast<std::uint8_t>(workload::MttfDistribution::kLognormal)) {
    why = "unknown mttf_dist tag " + std::to_string(dist);
    return false;
  }
  trace.mttf_dist = static_cast<workload::MttfDistribution>(dist);
  const auto profile = ranges(trace.profile);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    workload::Range& range = *profile[i];
    if (!take(r.take_f64(), range.lo, kRangeNames[i], why) ||
        !take(r.take_f64(), range.hi, kRangeNames[i], why)) {
      return false;
    }
    // A NaN capacity would poison every fit check downstream.
    if (!std::isfinite(range.lo) || !std::isfinite(range.hi) ||
        range.lo > range.hi) {
      why = std::string("profile range '") + kRangeNames[i] +
            "' must be finite with lo <= hi";
      return false;
    }
  }
  double& fraction = trace.profile.critical_link_fraction;
  if (!take(r.take_f64(), fraction, "critical_link_fraction", why)) {
    return false;
  }
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    why = "critical_link_fraction must be in [0, 1]";
    return false;
  }
  if (!r.exhausted()) {
    why = "trailing bytes after a complete header";
    return false;
  }
  return true;
}

}  // namespace

void put_event(std::string& out, const workload::TenantEvent& ev) {
  put_f64(out, ev.time);
  put_u8(out, static_cast<std::uint8_t>(ev.kind));
  put_u32(out, ev.tenant);
  put_u64(out, ev.guest_count);
  put_f64(out, ev.density);
  put_u64(out, ev.add_guests);
  put_u64(out, ev.add_links);
  put_u64(out, ev.seed);
  put_u32(out, ev.element);
  put_u8(out, static_cast<std::uint8_t>(ev.sla_tier));
  put_u32(out, ev.replica_n);
  put_u32(out, ev.replica_k);
  put_u32_vec(out, ev.group_hosts);
  put_u32_vec(out, ev.group_links);
}

std::optional<workload::TenantEvent> take_event(BinReader& r,
                                                std::string& why) {
  workload::TenantEvent ev;
  std::uint8_t kind = 0;
  std::uint8_t tier = 0;
  if (!take(r.take_f64(), ev.time, "event.time", why) ||
      !take(r.take_u8(), kind, "event.kind", why) ||
      !take(r.take_u32(), ev.tenant, "event.tenant", why) ||
      !take_count(r.take_u64(), ev.guest_count, "event.guest_count", why) ||
      !take(r.take_f64(), ev.density, "event.density", why) ||
      !take_count(r.take_u64(), ev.add_guests, "event.add_guests", why) ||
      !take_count(r.take_u64(), ev.add_links, "event.add_links", why) ||
      !take(r.take_u64(), ev.seed, "event.seed", why) ||
      !take(r.take_u32(), ev.element, "event.element", why) ||
      !take(r.take_u8(), tier, "event.sla_tier", why) ||
      !take(r.take_u32(), ev.replica_n, "event.replica_n", why) ||
      !take(r.take_u32(), ev.replica_k, "event.replica_k", why) ||
      !take(r.take_u32_vec(), ev.group_hosts, "event.group_hosts", why) ||
      !take(r.take_u32_vec(), ev.group_links, "event.group_links", why)) {
    return std::nullopt;
  }
  if (kind > static_cast<std::uint8_t>(workload::EventKind::kPowerRecover)) {
    why = "event kind " + std::to_string(kind) + " out of range";
    return std::nullopt;
  }
  ev.kind = static_cast<workload::EventKind>(kind);
  if (tier > static_cast<std::uint8_t>(model::SlaTier::kBestEffort)) {
    why = "event sla tier " + std::to_string(tier) + " out of range";
    return std::nullopt;
  }
  ev.sla_tier = static_cast<model::SlaTier>(tier);
  if (!std::isfinite(ev.time) || ev.time < 0.0) {
    why = "event time must be finite and non-negative";
    return std::nullopt;
  }
  if (ev.kind == workload::EventKind::kArrive &&
      !(ev.density >= 0.0 && ev.density <= 1.0)) {
    why = "arrive density must be in [0, 1]";
    return std::nullopt;
  }
  if ((ev.replica_n != 0 || ev.replica_k != 0) &&
      (ev.replica_n < 2 || ev.replica_k < 1 || ev.replica_k > ev.replica_n)) {
    why = "replica spec needs 0/0, or n >= 2 and 1 <= k <= n";
    return std::nullopt;
  }
  if (const char* field = stray_field(ev)) {
    why = std::string("'") + field + "' is not used by " +
          workload::to_string(ev.kind) + " events but is set";
    return std::nullopt;
  }
  if (!strictly_ascending(ev.group_hosts, "event.group_hosts", why) ||
      !strictly_ascending(ev.group_links, "event.group_links", why)) {
    return std::nullopt;
  }
  // A power domain that feeds nothing cannot exist; an empty group is a
  // truncated writer, not a degenerate-but-valid event.
  if ((ev.kind == workload::EventKind::kPowerFail ||
       ev.kind == workload::EventKind::kPowerRecover) &&
      ev.group_hosts.empty() && ev.group_links.empty()) {
    why = std::string(workload::to_string(ev.kind)) +
          " event: empty correlated group (no hosts, no links)";
    return std::nullopt;
  }
  return ev;
}

std::string event_json(const workload::TenantEvent& ev) {
  std::string out = "{\"t\":" + json_number(ev.time) + ",\"ev\":\"" +
                    workload::to_string(ev.kind) + '"';
  if (is_group_event(ev.kind)) {
    out += ",\"element\":" + std::to_string(ev.element) + ",\"hosts\":";
    write_ids(out, ev.group_hosts);
    out += ",\"links\":";
    write_ids(out, ev.group_links);
    return out + '}';
  }
  if (workload::is_failure_event(ev.kind)) {
    return out + ",\"element\":" + std::to_string(ev.element) + '}';
  }
  out += ",\"tenant\":" + std::to_string(ev.tenant);
  if (ev.kind == workload::EventKind::kArrive) {
    out += ",\"guests\":" + std::to_string(ev.guest_count) +
           ",\"density\":" + json_number(ev.density) + ",\"seed\":\"" +
           std::to_string(ev.seed) + '"';
    // Tier and replicas are written only when non-default.
    if (ev.sla_tier != model::SlaTier::kStandard) {
      out += ",\"tier\":\"";
      out += model::to_string(ev.sla_tier);
      out += '"';
    }
    if (ev.replica_n > 0) {
      out += ",\"replica_n\":" + std::to_string(ev.replica_n) +
             ",\"replica_k\":" + std::to_string(ev.replica_k);
    }
  } else if (ev.kind == workload::EventKind::kGrow) {
    out += ",\"add_guests\":" + std::to_string(ev.add_guests) +
           ",\"add_links\":" + std::to_string(ev.add_links) +
           ",\"seed\":\"" + std::to_string(ev.seed) + '"';
  }
  return out + '}';
}

std::string trace_to_jsonl(const workload::ChurnTrace& trace) {
  std::ostringstream out;
  out << "{\"type\":\"churn-trace\",\"version\":" << kTraceVersion
      << ",\"mttf_dist\":\"" << workload::to_string(trace.mttf_dist)
      << "\",\"profile\":{";
  const auto profile = ranges(trace.profile);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    out << '"' << kRangeNames[i] << "\":[" << json_number(profile[i]->lo)
        << ',' << json_number(profile[i]->hi) << "],";
  }
  out << "\"critical_link_fraction\":"
      << json_number(trace.profile.critical_link_fraction) << "}}\n";
  for (const workload::TenantEvent& ev : trace.events) {
    out << event_json(ev) << '\n';
  }
  return out.str();
}

std::string write_trace(const workload::ChurnTrace& trace) {
  std::string out;
  std::string payload;
  put_header(payload, trace);
  append_frame(out, payload);
  for (const workload::TenantEvent& ev : trace.events) {
    payload.clear();
    put_event(payload, ev);
    append_frame(out, payload);
  }
  return out;
}

std::variant<workload::ChurnTrace, TraceParseError> read_trace(
    std::string_view bytes) {
  FrameScan scan;
  if (const auto err = scan_frames(bytes, scan)) {
    return TraceParseError{"trace corrupted: " + err->message};
  }
  // A journal's torn tail is a crash artifact; a trace is written whole,
  // so a cut one is damage.
  if (scan.torn_tail) {
    return TraceParseError{"trace ends in a torn frame at byte offset " +
                           std::to_string(scan.valid_bytes)};
  }
  if (scan.frames.empty()) {
    return TraceParseError{"empty trace: no header frame"};
  }
  const auto fail = [](std::size_t frame, const std::string& why) {
    return TraceParseError{"trace frame " + std::to_string(frame) + ": " +
                           why};
  };
  workload::ChurnTrace trace;
  std::string why;
  if (!take_header(scan.frames[0], trace, why)) return fail(0, why);
  std::unordered_set<std::uint32_t> arrived;  // tenant keys seen arriving
  trace.events.reserve(scan.frames.size() - 1);
  for (std::size_t i = 1; i < scan.frames.size(); ++i) {
    BinReader r(scan.frames[i]);
    std::optional<workload::TenantEvent> ev = take_event(r, why);
    if (!ev) return fail(i, why);
    if (!r.exhausted()) return fail(i, "trailing bytes after a complete event");
    // Equal times are legal: merge_events emits ties.
    if (!trace.events.empty() && ev->time < trace.events.back().time) {
      return fail(i, "event time " + json_number(ev->time) +
                         " precedes the previous event's " +
                         json_number(trace.events.back().time));
    }
    if (ev->kind == workload::EventKind::kArrive &&
        !arrived.insert(ev->tenant).second) {
      return fail(i, "duplicate arrive for tenant " +
                         std::to_string(ev->tenant));
    }
    trace.events.push_back(*std::move(ev));
  }
  return trace;
}

workload::ChurnTrace read_trace_or_throw(std::string_view bytes) {
  auto parsed = read_trace(bytes);
  if (std::holds_alternative<TraceParseError>(parsed)) {
    throw std::runtime_error("trace parse error: " +
                             std::get<TraceParseError>(parsed).message);
  }
  return std::get<workload::ChurnTrace>(std::move(parsed));
}

bool save_trace(const std::filesystem::path& path,
                const workload::ChurnTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << write_trace(trace);
  return static_cast<bool>(out);
}

std::optional<workload::ChurnTrace> load_trace(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = read_trace(buf.str());
  if (std::holds_alternative<TraceParseError>(parsed)) return std::nullopt;
  return std::get<workload::ChurnTrace>(std::move(parsed));
}

}  // namespace hmn::io
