#include "io/trace.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "io/json.h"
#include "io/json_parser.h"

namespace hmn::io {
namespace {

void write_range(std::ostringstream& out, const char* name,
                 const workload::Range& r) {
  out << '"' << name << "\":[" << json_number(r.lo) << ','
      << json_number(r.hi) << ']';
}

void write_ids(std::string& out, const std::vector<std::uint32_t>& ids) {
  out += '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(ids[i]);
  }
  out += ']';
}

TraceParseError err(std::size_t line, std::string message) {
  return {std::move(message), line};
}

/// Reads a [lo,hi] member into `range`; false on shape mismatch or a
/// non-finite / inverted range (a NaN capacity would poison every fit
/// check downstream).
bool read_range(const JsonValue& profile, const char* name,
                workload::Range& range) {
  const JsonValue* v = profile.find(name);
  if (v == nullptr || !v->is_array() || v->as_array().size() != 2 ||
      !v->as_array()[0].is_number() || !v->as_array()[1].is_number()) {
    return false;
  }
  const double lo = v->as_array()[0].as_number();
  const double hi = v->as_array()[1].as_number();
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi) return false;
  range.lo = lo;
  range.hi = hi;
  return true;
}

/// Reads a required member holding a non-negative 32-bit integer (an id or
/// a count).  Rejects missing/NaN/infinite/fractional/overflowing values
/// with a descriptive reason — a 1e300 guest count must not become a
/// silently wrapped size_t.
bool read_u32(const JsonValue& obj, const char* name, std::uint32_t& out,
              std::string& why) {
  const JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_number()) {
    why = std::string("missing or non-numeric '") + name + "'";
    return false;
  }
  const std::optional<std::uint32_t> id = json_u32(*v);
  if (!id) {
    why = std::string("'") + name + "' must be an integer in [0, 2^32)";
    return false;
  }
  out = *id;
  return true;
}

/// 64-bit seeds travel as decimal strings; anything else (empty, signs,
/// trailing garbage, > 2^64-1) is rejected rather than strtoull-truncated.
bool read_seed(const JsonValue& obj, std::uint64_t& seed, std::string& why) {
  const JsonValue* v = obj.find("seed");
  if (v == nullptr || !v->is_string()) {
    why = "needs a string seed";
    return false;
  }
  const std::string& s = v->as_string();
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    why = "seed must be a decimal digit string";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) {
    why = "seed overflows 64 bits";
    return false;
  }
  seed = parsed;
  return true;
}

/// Reads an optional blast-group member array ("hosts"/"links"): every
/// entry a u32, strictly ascending (sorted, duplicate-free).  Descriptive
/// reasons carry the offending member offset within the array.
bool read_group(const JsonValue& obj, const char* name,
                std::vector<std::uint32_t>& out, std::string& why) {
  const JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_array()) {
    why = std::string("truncated blast group: missing or non-array '") + name +
          "'";
    return false;
  }
  const auto& arr = v->as_array();
  out.clear();
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const std::optional<std::uint32_t> member = json_u32(arr[i]);
    if (!member) {
      why = std::string("'") + name + "' member at offset " +
            std::to_string(i) + " must be an integer in [0, 2^32)";
      return false;
    }
    const std::uint32_t id = *member;
    if (!out.empty() && id <= out.back()) {
      why = std::string("duplicate or unsorted member ") + std::to_string(id) +
            " in '" + name + "' at offset " + std::to_string(i);
      return false;
    }
    out.push_back(id);
  }
  return true;
}

}  // namespace

std::string event_json(const workload::TenantEvent& ev) {
  std::string out = "{\"t\":" + json_number(ev.time) + ",\"ev\":\"" +
                    workload::to_string(ev.kind) + '"';
  if (ev.kind == workload::EventKind::kBlastFail ||
      ev.kind == workload::EventKind::kBlastRecover ||
      ev.kind == workload::EventKind::kPowerFail ||
      ev.kind == workload::EventKind::kPowerRecover) {
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

std::string write_trace(const workload::ChurnTrace& trace) {
  std::ostringstream out;
  out << "{\"type\":\"churn-trace\",\"version\":4,\"mttf_dist\":\""
      << workload::to_string(trace.mttf_dist) << "\",\"profile\":{";
  write_range(out, "proc_mips", trace.profile.proc_mips);
  out << ',';
  write_range(out, "mem_mb", trace.profile.mem_mb);
  out << ',';
  write_range(out, "stor_gb", trace.profile.stor_gb);
  out << ',';
  write_range(out, "link_bw_mbps", trace.profile.link_bw_mbps);
  out << ',';
  write_range(out, "link_lat_ms", trace.profile.link_lat_ms);
  out << ",\"critical_link_fraction\":"
      << json_number(trace.profile.critical_link_fraction);
  out << "}}\n";

  for (const workload::TenantEvent& ev : trace.events) {
    out << event_json(ev) << '\n';
  }
  return out.str();
}

std::variant<workload::ChurnTrace, TraceParseError> read_trace(
    std::string_view text) {
  workload::ChurnTrace trace;
  bool saw_header = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  std::unordered_set<std::uint32_t> arrived;  // tenant keys seen arriving
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;

    auto parsed = parse_json(line);
    if (std::holds_alternative<JsonParseError>(parsed)) {
      const auto& e = std::get<JsonParseError>(parsed);
      return err(line_no, e.message + " (line offset " +
                              std::to_string(e.offset) + ")");
    }
    const JsonValue& obj = std::get<JsonValue>(parsed);
    if (!obj.is_object()) return err(line_no, "expected a JSON object");

    if (!saw_header) {
      const JsonValue* type = obj.find("type");
      if (type == nullptr || !type->is_string() ||
          type->as_string() != "churn-trace") {
        return err(line_no, "missing churn-trace header");
      }
      std::uint32_t version = 0;
      std::string vwhy;
      if (!read_u32(obj, "version", version, vwhy)) {
        return err(line_no, "header: " + vwhy);
      }
      if (version != 4) {
        return err(line_no, "unsupported trace version " +
                                std::to_string(version) +
                                " (this reader reads only version 4)");
      }
      const JsonValue* profile = obj.find("profile");
      if (profile == nullptr || !profile->is_object() ||
          !read_range(*profile, "proc_mips", trace.profile.proc_mips) ||
          !read_range(*profile, "mem_mb", trace.profile.mem_mb) ||
          !read_range(*profile, "stor_gb", trace.profile.stor_gb) ||
          !read_range(*profile, "link_bw_mbps", trace.profile.link_bw_mbps) ||
          !read_range(*profile, "link_lat_ms", trace.profile.link_lat_ms)) {
        return err(line_no, "malformed profile in header");
      }
      // Optional (exponential MTTF and no critical links when absent);
      // when present they must be well-formed.
      if (const JsonValue* dist = obj.find("mttf_dist"); dist != nullptr) {
        if (!dist->is_string()) {
          return err(line_no, "header: mttf_dist must be a string");
        }
        const std::string& tag = dist->as_string();
        if (tag == "exponential") {
          trace.mttf_dist = workload::MttfDistribution::kExponential;
        } else if (tag == "weibull") {
          trace.mttf_dist = workload::MttfDistribution::kWeibull;
        } else if (tag == "lognormal") {
          trace.mttf_dist = workload::MttfDistribution::kLognormal;
        } else {
          return err(line_no, "header: unknown mttf_dist tag '" + tag + "'");
        }
      }
      if (const JsonValue* frac = profile->find("critical_link_fraction");
          frac != nullptr) {
        if (!frac->is_number() || !std::isfinite(frac->as_number()) ||
            frac->as_number() < 0.0 || frac->as_number() > 1.0) {
          return err(line_no,
                     "header: critical_link_fraction must be in [0, 1]");
        }
        trace.profile.critical_link_fraction = frac->as_number();
      }
      saw_header = true;
      continue;
    }

    workload::TenantEvent ev;
    const JsonValue* t = obj.find("t");
    const JsonValue* kind = obj.find("ev");
    if (t == nullptr || !t->is_number() || kind == nullptr ||
        !kind->is_string()) {
      return err(line_no, "event line needs t and ev");
    }
    ev.time = t->as_number();
    if (!std::isfinite(ev.time) || ev.time < 0.0) {
      return err(line_no, "event time must be finite and non-negative");
    }
    const std::string& k = kind->as_string();
    std::string why;
    // Nothing malformed skips quietly: tier / replica declarations belong
    // to arrive lines only; anywhere else they signal a corrupted or
    // hand-mangled trace and are rejected with the field named, not
    // silently ignored.
    for (const char* name : {"tier", "replica_n", "replica_k"}) {
      if (obj.find(name) != nullptr && k != "arrive") {
        return err(line_no, "'" + std::string(name) +
                                "' is only valid on arrive events (found on "
                                "a " +
                                k + " line)");
      }
    }
    if (k == "blast-fail" || k == "blast-recover" || k == "power-fail" ||
        k == "power-recover") {
      const bool power = k == "power-fail" || k == "power-recover";
      ev.kind = k == "blast-fail"      ? workload::EventKind::kBlastFail
                : k == "blast-recover" ? workload::EventKind::kBlastRecover
                : k == "power-fail"    ? workload::EventKind::kPowerFail
                                       : workload::EventKind::kPowerRecover;
      if (!read_u32(obj, "element", ev.element, why) ||
          !read_group(obj, "hosts", ev.group_hosts, why) ||
          !read_group(obj, "links", ev.group_links, why)) {
        return err(line_no, k + " event: " + why);
      }
      // A power domain that feeds nothing cannot exist; an empty group is
      // a truncated writer, not a degenerate-but-valid event.
      if (power && ev.group_hosts.empty() && ev.group_links.empty()) {
        return err(line_no,
                   k + " event: empty correlated group (no hosts, no links)");
      }
      trace.events.push_back(std::move(ev));
      continue;
    }
    if (k == "host-fail" || k == "link-fail" || k == "host-recover" ||
        k == "link-recover") {
      ev.kind = k == "host-fail"      ? workload::EventKind::kHostFail
                : k == "link-fail"    ? workload::EventKind::kLinkFail
                : k == "host-recover" ? workload::EventKind::kHostRecover
                                      : workload::EventKind::kLinkRecover;
      if (!read_u32(obj, "element", ev.element, why)) {
        return err(line_no, k + " event: " + why);
      }
      trace.events.push_back(ev);
      continue;
    }
    if (!read_u32(obj, "tenant", ev.tenant, why)) {
      return err(line_no, k + " event: " + why);
    }
    if (k == "arrive") {
      ev.kind = workload::EventKind::kArrive;
      std::uint32_t guests = 0;
      if (!read_u32(obj, "guests", guests, why)) {
        return err(line_no, "arrive event: " + why);
      }
      ev.guest_count = guests;
      const JsonValue* density = obj.find("density");
      if (density == nullptr || !density->is_number() ||
          !std::isfinite(density->as_number()) ||
          density->as_number() < 0.0 || density->as_number() > 1.0) {
        return err(line_no, "arrive event: density must be in [0, 1]");
      }
      ev.density = density->as_number();
      if (!read_seed(obj, ev.seed, why)) {
        return err(line_no, "arrive event: " + why);
      }
      if (!arrived.insert(ev.tenant).second) {
        return err(line_no, "duplicate arrive for tenant " +
                                std::to_string(ev.tenant));
      }
      // Optional: standard tier and no replicas when absent.
      if (const JsonValue* tier = obj.find("tier"); tier != nullptr) {
        if (!tier->is_string()) {
          return err(line_no, "arrive event: tier must be a string");
        }
        const std::string& tag = tier->as_string();
        if (tag == "gold") {
          ev.sla_tier = model::SlaTier::kGold;
        } else if (tag == "standard") {
          ev.sla_tier = model::SlaTier::kStandard;
        } else if (tag == "best-effort") {
          ev.sla_tier = model::SlaTier::kBestEffort;
        } else {
          return err(line_no,
                     "arrive event: unknown tier tag '" + tag + "'");
        }
      }
      const bool has_n = obj.find("replica_n") != nullptr;
      const bool has_k = obj.find("replica_k") != nullptr;
      if (has_n != has_k) {
        return err(line_no,
                   "arrive event: replica_n and replica_k must appear "
                   "together");
      }
      if (has_n) {
        if (!read_u32(obj, "replica_n", ev.replica_n, why) ||
            !read_u32(obj, "replica_k", ev.replica_k, why)) {
          return err(line_no, "arrive event: " + why);
        }
        if (ev.replica_n < 2 || ev.replica_k < 1 ||
            ev.replica_k > ev.replica_n) {
          return err(line_no,
                     "arrive event: replica spec needs n >= 2 and "
                     "1 <= k <= n");
        }
      }
    } else if (k == "grow") {
      ev.kind = workload::EventKind::kGrow;
      std::uint32_t add_guests = 0, add_links = 0;
      if (!read_u32(obj, "add_guests", add_guests, why) ||
          !read_u32(obj, "add_links", add_links, why)) {
        return err(line_no, "grow event: " + why);
      }
      ev.add_guests = add_guests;
      ev.add_links = add_links;
      if (!read_seed(obj, ev.seed, why)) {
        return err(line_no, "grow event: " + why);
      }
    } else if (k == "depart") {
      ev.kind = workload::EventKind::kDepart;
    } else {
      return err(line_no, "unknown event kind '" + k + "'");
    }
    trace.events.push_back(ev);
  }
  if (!saw_header) return err(0, "empty trace: no header line");
  return trace;
}

workload::ChurnTrace read_trace_or_throw(std::string_view text) {
  auto parsed = read_trace(text);
  if (std::holds_alternative<TraceParseError>(parsed)) {
    const auto& e = std::get<TraceParseError>(parsed);
    throw std::runtime_error("trace parse error at line " +
                             std::to_string(e.line) + ": " + e.message);
  }
  return std::get<workload::ChurnTrace>(std::move(parsed));
}

bool save_trace(const std::filesystem::path& path,
                const workload::ChurnTrace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_trace(trace);
  return static_cast<bool>(out);
}

std::optional<workload::ChurnTrace> load_trace(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = read_trace(buf.str());
  if (std::holds_alternative<TraceParseError>(parsed)) return std::nullopt;
  return std::get<workload::ChurnTrace>(std::move(parsed));
}

}  // namespace hmn::io
