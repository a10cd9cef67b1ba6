#include "recovery/checkpoint.h"

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "io/binfmt.h"
#include "recovery/journal.h"

namespace hmn::recovery {
namespace {

using orchestrator::Orchestrator;

[[noreturn]] void fail(const io::BinReader& r, const std::string& what) {
  throw RecoveryError("checkpoint decode failed at payload offset " +
                      std::to_string(r.position()) + ": " + what);
}

/// Unwraps a take_* result or fails with the field name — every truncation
/// points at the exact offset and field, never a silent default.
template <typename T>
T need(std::optional<T> v, const io::BinReader& r, const char* field) {
  if (!v.has_value()) fail(r, std::string("truncated field '") + field + "'");
  return *std::move(v);
}

/// Reads an element count and refuses one the unread bytes cannot hold at
/// `item_bytes` apiece (the smallest encoding of one element), so a corrupt
/// count fails here, before anything is sized from it.
std::uint64_t take_count(io::BinReader& r, std::size_t item_bytes,
                         const char* field) {
  const std::uint64_t n = need(r.take_u64(), r, field);
  if (n > r.remaining() / item_bytes) {
    fail(r, std::string("count of '") + field + "' exceeds the bytes left");
  }
  return n;
}

// Smallest encodings of the nested sections: a venv with no guests, links
// or replica groups (three counts and the tier byte), and a mapping with
// no hosts or paths (two counts).
constexpr std::size_t kVenvMinBytes = 8 + 8 + 1 + 8;
constexpr std::size_t kMappingMinBytes = 8 + 8;

// ---- field-group helpers, encode and decode kept adjacent ----------------

void put_bool_vec(std::string& out, const std::vector<bool>& v) {
  io::put_u64(out, v.size());
  for (const bool b : v) io::put_u8(out, b ? 1 : 0);
}

std::vector<bool> take_bool_vec(io::BinReader& r, const char* field) {
  const std::uint64_t n = take_count(r, 1, field);
  std::vector<bool> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = need(r.take_u8(), r, field) != 0;
  return v;
}

void put_f64_vec(std::string& out, const std::vector<double>& v) {
  io::put_u64(out, v.size());
  for (const double d : v) io::put_f64(out, d);
}

std::vector<double> take_f64_vec(io::BinReader& r, const char* field) {
  const std::uint64_t n = take_count(r, 8, field);
  std::vector<double> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = need(r.take_f64(), r, field);
  return v;
}

void put_venv(std::string& out, const model::VirtualEnvironment& venv) {
  io::put_u64(out, venv.guest_count());
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const model::GuestRequirements& req =
        venv.guest(GuestId{static_cast<std::uint32_t>(g)});
    io::put_f64(out, req.proc_mips);
    io::put_f64(out, req.mem_mb);
    io::put_f64(out, req.stor_gb);
  }
  io::put_u64(out, venv.link_count());
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    const VirtLinkId id{static_cast<std::uint32_t>(l)};
    const model::VirtualLinkEndpoints ep = venv.endpoints(id);
    const model::VirtualLinkDemand& demand = venv.link(id);
    io::put_u32(out, ep.src.value());
    io::put_u32(out, ep.dst.value());
    io::put_f64(out, demand.bandwidth_mbps);
    io::put_f64(out, demand.max_latency_ms);
    io::put_u8(out, demand.critical ? 1 : 0);
  }
  io::put_u8(out, static_cast<std::uint8_t>(venv.sla_tier()));
  io::put_u64(out, venv.replica_group_count());
  for (const model::ReplicaGroup& group : venv.replica_groups()) {
    std::vector<std::uint32_t> members;
    members.reserve(group.members.size());
    for (const GuestId g : group.members) members.push_back(g.value());
    io::put_u32_vec(out, members);
    io::put_u64(out, group.required);
  }
}

model::VirtualEnvironment take_venv(io::BinReader& r) {
  model::VirtualEnvironment venv;
  const std::uint64_t guests = take_count(r, 3 * 8, "venv.guest_count");
  for (std::uint64_t g = 0; g < guests; ++g) {
    model::GuestRequirements req;
    req.proc_mips = need(r.take_f64(), r, "venv.guest.proc");
    req.mem_mb = need(r.take_f64(), r, "venv.guest.mem");
    req.stor_gb = need(r.take_f64(), r, "venv.guest.stor");
    venv.add_guest(req);
  }
  const std::uint64_t links =
      take_count(r, 4 + 4 + 8 + 8 + 1, "venv.link_count");
  for (std::uint64_t l = 0; l < links; ++l) {
    const std::uint32_t src = need(r.take_u32(), r, "venv.link.src");
    const std::uint32_t dst = need(r.take_u32(), r, "venv.link.dst");
    if (src >= guests || dst >= guests) {
      fail(r, "venv link endpoint out of range");
    }
    model::VirtualLinkDemand demand;
    demand.bandwidth_mbps = need(r.take_f64(), r, "venv.link.bw");
    demand.max_latency_ms = need(r.take_f64(), r, "venv.link.lat");
    demand.critical = need(r.take_u8(), r, "venv.link.critical") != 0;
    venv.add_link(GuestId{src}, GuestId{dst}, demand);
  }
  const std::uint8_t tier = need(r.take_u8(), r, "venv.sla_tier");
  if (tier > static_cast<std::uint8_t>(model::SlaTier::kBestEffort)) {
    fail(r, "venv sla tier out of range");
  }
  venv.set_sla_tier(static_cast<model::SlaTier>(tier));
  const std::uint64_t groups = take_count(r, 8 + 8, "venv.replica_groups");
  for (std::uint64_t i = 0; i < groups; ++i) {
    const std::vector<std::uint32_t> raw =
        need(r.take_u32_vec(), r, "venv.replica_group.members");
    std::vector<GuestId> members;
    members.reserve(raw.size());
    for (const std::uint32_t m : raw) members.push_back(GuestId{m});
    const std::uint64_t required =
        need(r.take_u64(), r, "venv.replica_group.required");
    try {
      venv.add_replica_group(std::move(members), required);
    } catch (const std::invalid_argument& e) {
      fail(r, std::string("invalid replica group: ") + e.what());
    }
  }
  return venv;
}

void put_mapping(std::string& out, const core::Mapping& mapping) {
  std::vector<std::uint32_t> hosts;
  hosts.reserve(mapping.guest_host.size());
  for (const NodeId h : mapping.guest_host) hosts.push_back(h.value());
  io::put_u32_vec(out, hosts);
  io::put_u64(out, mapping.link_paths.size());
  for (const graph::Path& path : mapping.link_paths) {
    std::vector<std::uint32_t> edges;
    edges.reserve(path.size());
    for (const EdgeId e : path) edges.push_back(e.value());
    io::put_u32_vec(out, edges);
  }
}

core::Mapping take_mapping(io::BinReader& r) {
  core::Mapping mapping;
  const std::vector<std::uint32_t> hosts =
      need(r.take_u32_vec(), r, "mapping.guest_host");
  mapping.guest_host.reserve(hosts.size());
  for (const std::uint32_t h : hosts) mapping.guest_host.push_back(NodeId{h});
  const std::uint64_t paths = take_count(r, 8, "mapping.link_paths");
  mapping.link_paths.reserve(paths);
  for (std::uint64_t p = 0; p < paths; ++p) {
    const std::vector<std::uint32_t> raw =
        need(r.take_u32_vec(), r, "mapping.path");
    graph::Path path;
    path.reserve(raw.size());
    for (const std::uint32_t e : raw) path.push_back(EdgeId{e});
    mapping.link_paths.push_back(std::move(path));
  }
  return mapping;
}

void put_tenancy(std::string& out, const emulator::TenancyManager::State& s) {
  io::put_u64(out, s.tenants.size());
  for (const emulator::Tenant& t : s.tenants) {
    io::put_u32(out, t.id);
    io::put_bytes(out, t.name);
    put_venv(out, t.venv);
    put_mapping(out, t.mapping);
  }
  io::put_u32(out, s.next_id);
  put_bool_vec(out, s.node_down);
  put_bool_vec(out, s.edge_down);
  put_f64_vec(out, s.host_weights);
  io::put_f64(out, s.admission_headroom);
  // Exact aggregates: restore verifies them against the mappings, then
  // installs them verbatim so a recovered run sees bit-identical residuals.
  put_f64_vec(out, s.used_proc);
  put_f64_vec(out, s.used_mem);
  put_f64_vec(out, s.used_stor);
  put_f64_vec(out, s.used_bw);
}

emulator::TenancyManager::State take_tenancy(io::BinReader& r) {
  emulator::TenancyManager::State s;
  const std::uint64_t n = take_count(
      r, 4 + 8 + kVenvMinBytes + kMappingMinBytes, "tenancy.tenant_count");
  s.tenants.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    emulator::Tenant t;
    t.id = need(r.take_u32(), r, "tenant.id");
    t.name = std::string(need(r.take_bytes(), r, "tenant.name"));
    t.venv = take_venv(r);
    t.mapping = take_mapping(r);
    if (t.mapping.guest_host.size() != t.venv.guest_count() ||
        t.mapping.link_paths.size() != t.venv.link_count()) {
      fail(r, "tenant mapping does not cover its venv");
    }
    s.tenants.push_back(std::move(t));
  }
  s.next_id = need(r.take_u32(), r, "tenancy.next_id");
  s.node_down = take_bool_vec(r, "tenancy.node_down");
  s.edge_down = take_bool_vec(r, "tenancy.edge_down");
  s.host_weights = take_f64_vec(r, "tenancy.host_weights");
  s.admission_headroom = need(r.take_f64(), r, "tenancy.admission_headroom");
  s.used_proc = take_f64_vec(r, "tenancy.used_proc");
  s.used_mem = take_f64_vec(r, "tenancy.used_mem");
  s.used_stor = take_f64_vec(r, "tenancy.used_stor");
  s.used_bw = take_f64_vec(r, "tenancy.used_bw");
  return s;
}

void put_healer(std::string& out, const orchestrator::Healer::State& s) {
  io::put_u64(out, s.degraded.size());
  for (const auto& [key, links] : s.degraded) {
    io::put_u32(out, key);
    std::vector<std::uint32_t> raw;
    raw.reserve(links.size());
    for (const VirtLinkId l : links) raw.push_back(l.value());
    io::put_u32_vec(out, raw);
  }
  io::put_u64(out, s.deferred.size());
  for (const auto& [key, guests] : s.deferred) {
    io::put_u32(out, key);
    std::vector<std::uint32_t> raw;
    raw.reserve(guests.size());
    for (const GuestId g : guests) raw.push_back(g.value());
    io::put_u32_vec(out, raw);
  }
  io::put_u64(out, s.parked.size());
  for (const orchestrator::ParkedTenant& p : s.parked) {
    io::put_u32(out, p.key);
    io::put_bytes(out, p.name);
    put_venv(out, p.venv);
    io::put_f64(out, p.parked_at);
    io::put_u64(out, p.attempts);
    io::put_f64(out, p.next_attempt);
  }
}

orchestrator::Healer::State take_healer(io::BinReader& r) {
  orchestrator::Healer::State s;
  const std::uint64_t degraded = take_count(r, 4 + 8, "healer.degraded");
  for (std::uint64_t i = 0; i < degraded; ++i) {
    const std::uint32_t key = need(r.take_u32(), r, "healer.degraded.key");
    const std::vector<std::uint32_t> raw =
        need(r.take_u32_vec(), r, "healer.degraded.links");
    std::vector<VirtLinkId>& links = s.degraded[key];
    links.reserve(raw.size());
    for (const std::uint32_t l : raw) links.push_back(VirtLinkId{l});
  }
  const std::uint64_t deferred = take_count(r, 4 + 8, "healer.deferred");
  for (std::uint64_t i = 0; i < deferred; ++i) {
    const std::uint32_t key = need(r.take_u32(), r, "healer.deferred.key");
    const std::vector<std::uint32_t> raw =
        need(r.take_u32_vec(), r, "healer.deferred.guests");
    std::vector<GuestId>& guests = s.deferred[key];
    guests.reserve(raw.size());
    for (const std::uint32_t g : raw) guests.push_back(GuestId{g});
  }
  const std::uint64_t parked =
      take_count(r, 4 + 8 + kVenvMinBytes + 3 * 8, "healer.parked");
  s.parked.reserve(parked);
  for (std::uint64_t i = 0; i < parked; ++i) {
    orchestrator::ParkedTenant p;
    p.key = need(r.take_u32(), r, "parked.key");
    p.name = std::string(need(r.take_bytes(), r, "parked.name"));
    p.venv = take_venv(r);
    p.parked_at = need(r.take_f64(), r, "parked.parked_at");
    p.attempts = need(r.take_u64(), r, "parked.attempts");
    p.next_attempt = need(r.take_f64(), r, "parked.next_attempt");
    s.parked.push_back(std::move(p));
  }
  return s;
}

void put_queue(std::string& out,
               const std::vector<orchestrator::PendingTenant>& queue) {
  io::put_u64(out, queue.size());
  for (const orchestrator::PendingTenant& p : queue) {
    io::put_u32(out, p.key);
    io::put_bytes(out, p.name);
    put_venv(out, p.venv);
    io::put_u64(out, p.seed);
    io::put_f64(out, p.enqueued_at);
    io::put_u64(out, p.attempts);
    io::put_u64(out, p.passed_over);
  }
}

std::vector<orchestrator::PendingTenant> take_queue(io::BinReader& r) {
  const std::uint64_t n =
      take_count(r, 4 + 8 + kVenvMinBytes + 4 * 8, "queue.count");
  std::vector<orchestrator::PendingTenant> queue;
  queue.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    orchestrator::PendingTenant p;
    p.key = need(r.take_u32(), r, "queue.key");
    p.name = std::string(need(r.take_bytes(), r, "queue.name"));
    p.venv = take_venv(r);
    p.seed = need(r.take_u64(), r, "queue.seed");
    p.enqueued_at = need(r.take_f64(), r, "queue.enqueued_at");
    p.attempts = need(r.take_u64(), r, "queue.attempts");
    p.passed_over = need(r.take_u64(), r, "queue.passed_over");
    queue.push_back(std::move(p));
  }
  return queue;
}

void put_elements(std::string& out,
                  const std::vector<availability::ElementSnapshot>& v) {
  io::put_u64(out, v.size());
  for (const availability::ElementSnapshot& e : v) {
    io::put_f64(out, e.avail);
    io::put_f64(out, e.since);
    io::put_u8(out, e.down ? 1 : 0);
    io::put_u8(out, e.ever_failed ? 1 : 0);
  }
}

std::vector<availability::ElementSnapshot> take_elements(io::BinReader& r,
                                                         const char* field) {
  const std::uint64_t n = take_count(r, 8 + 8 + 1 + 1, field);
  std::vector<availability::ElementSnapshot> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    availability::ElementSnapshot e;
    e.avail = need(r.take_f64(), r, field);
    e.since = need(r.take_f64(), r, field);
    e.down = need(r.take_u8(), r, field) != 0;
    e.ever_failed = need(r.take_u8(), r, field) != 0;
    v.push_back(e);
  }
  return v;
}

void put_report(std::string& out, const orchestrator::ReportCounters& rep) {
  // Fixed order; the wall-clock defrag.total_seconds, migration_seconds
  // and reroute_seconds stay out of the format by design.
  for (const std::size_t c :
       {rep.arrivals, rep.admitted_immediately, rep.admitted_from_queue,
        rep.rejected, rep.dropped, rep.preempted, rep.abandoned, rep.growths,
        rep.grown_in_place, rep.grown_by_remap, rep.growth_rejected,
        rep.host_failures, rep.link_failures, rep.blast_failures,
        rep.power_failures, rep.recoveries, rep.healed, rep.degraded,
        rep.restored, rep.replica_deferred, rep.parked, rep.readmitted,
        rep.heal_dropped}) {
    io::put_u64(out, c);
  }
  for (const double d :
       {rep.tenant_minutes_lost, rep.tenant_minutes_lost_gold,
        rep.tenant_minutes_lost_standard, rep.tenant_minutes_lost_best_effort,
        rep.degraded_minutes}) {
    io::put_f64(out, d);
  }
  io::put_u64(out, rep.defrag.passes);
  io::put_u64(out, rep.defrag.committed);
  io::put_u64(out, rep.defrag.migrations);
  io::put_f64(out, rep.defrag.lbf_reduction);
}

orchestrator::ReportCounters take_report(io::BinReader& r) {
  orchestrator::ReportCounters rep;
  for (std::size_t* c :
       {&rep.arrivals, &rep.admitted_immediately, &rep.admitted_from_queue,
        &rep.rejected, &rep.dropped, &rep.preempted, &rep.abandoned,
        &rep.growths, &rep.grown_in_place, &rep.grown_by_remap,
        &rep.growth_rejected, &rep.host_failures, &rep.link_failures,
        &rep.blast_failures, &rep.power_failures, &rep.recoveries,
        &rep.healed, &rep.degraded, &rep.restored, &rep.replica_deferred,
        &rep.parked, &rep.readmitted, &rep.heal_dropped}) {
    *c = need(r.take_u64(), r, "report.counter");
  }
  for (double* d :
       {&rep.tenant_minutes_lost, &rep.tenant_minutes_lost_gold,
        &rep.tenant_minutes_lost_standard,
        &rep.tenant_minutes_lost_best_effort, &rep.degraded_minutes}) {
    *d = need(r.take_f64(), r, "report.accrued");
  }
  rep.defrag.passes = need(r.take_u64(), r, "report.defrag.passes");
  rep.defrag.committed = need(r.take_u64(), r, "report.defrag.committed");
  rep.defrag.migrations = need(r.take_u64(), r, "report.defrag.migrations");
  rep.defrag.lbf_reduction =
      need(r.take_f64(), r, "report.defrag.lbf_reduction");
  return rep;
}

}  // namespace

std::string encode_state(const Orchestrator::State& state) {
  std::string out;
  io::put_u32(out, kCheckpointVersion);
  put_tenancy(out, state.tenancy);
  put_healer(out, state.healer);
  put_queue(out, state.queue);
  put_elements(out, state.availability.nodes);
  io::put_u8(out, state.availability.has_history ? 1 : 0);
  io::put_u64(out, state.live.size());
  for (const auto& [key, id] : state.live) {
    io::put_u32(out, key);
    io::put_u32(out, id);
  }
  io::put_u64(out, state.degraded_since.size());
  for (const auto& [key, t] : state.degraded_since) {
    io::put_u32(out, key);
    io::put_f64(out, t);
  }
  io::put_u64(out, state.lost_since.size());
  for (const auto& [key, window] : state.lost_since) {
    io::put_u32(out, key);
    io::put_f64(out, window.since);
    io::put_u8(out, static_cast<std::uint8_t>(window.tier));
  }
  io::put_u64(out, state.departures);
  io::put_u64(out, state.events_handled);
  io::put_u64(out, state.run_fingerprint);
  put_report(out, state.report);
  return out;
}

Orchestrator::State decode_state(std::string_view payload) {
  io::BinReader r(payload);
  const std::uint32_t version = need(r.take_u32(), r, "version");
  if (version != kCheckpointVersion) {
    fail(r, "unsupported checkpoint version " + std::to_string(version) +
                " (expected " + std::to_string(kCheckpointVersion) + ")");
  }
  Orchestrator::State state;
  state.tenancy = take_tenancy(r);
  state.healer = take_healer(r);
  state.queue = take_queue(r);
  state.availability.nodes = take_elements(r, "availability.nodes");
  state.availability.has_history =
      need(r.take_u8(), r, "availability.has_history") != 0;
  const std::uint64_t live = take_count(r, 4 + 4, "live.count");
  for (std::uint64_t i = 0; i < live; ++i) {
    const std::uint32_t key = need(r.take_u32(), r, "live.key");
    state.live[key] = need(r.take_u32(), r, "live.tenant");
  }
  const std::uint64_t degraded =
      take_count(r, 4 + 8, "degraded_since.count");
  for (std::uint64_t i = 0; i < degraded; ++i) {
    const std::uint32_t key = need(r.take_u32(), r, "degraded_since.key");
    state.degraded_since[key] = need(r.take_f64(), r, "degraded_since.time");
  }
  const std::uint64_t lost = take_count(r, 4 + 8 + 1, "lost_since.count");
  for (std::uint64_t i = 0; i < lost; ++i) {
    const std::uint32_t key = need(r.take_u32(), r, "lost_since.key");
    orchestrator::LostWindow& window = state.lost_since[key];
    window.since = need(r.take_f64(), r, "lost_since.time");
    const std::uint8_t tier = need(r.take_u8(), r, "lost_since.tier");
    if (tier > static_cast<std::uint8_t>(model::SlaTier::kBestEffort)) {
      fail(r, "lost_since tier out of range");
    }
    window.tier = static_cast<model::SlaTier>(tier);
  }
  state.departures = need(r.take_u64(), r, "departures");
  state.events_handled = need(r.take_u64(), r, "events_handled");
  state.run_fingerprint = need(r.take_u64(), r, "run_fingerprint");
  state.report = take_report(r);
  if (!r.exhausted()) {
    fail(r, std::to_string(payload.size() - r.position()) +
                " trailing bytes after a complete state");
  }
  return state;
}

}  // namespace hmn::recovery
