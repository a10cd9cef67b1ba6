// Doctored-frame corpus for the one event decoder.  Each case encodes a
// valid trace, changes one field, and re-frames it with a valid CRC, so
// only the decoder's rules stand between the bytes and a replay.  Every
// event rule runs twice: as a trace event (a TraceParseError naming the
// frame) and as a journal EVENT_BEGIN (a RecoveryError naming the record).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "io/binfmt.h"
#include "io/trace.h"
#include "orchestrator/orchestrator.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "testing/fixtures.h"
#include "workload/churn.h"

namespace {

using namespace hmn;
using workload::EventKind;
using workload::TenantEvent;

// Byte offsets of put_event's fields within an event's encoding.
constexpr std::size_t kTimeAt = 0;
constexpr std::size_t kKindAt = 8;
constexpr std::size_t kTenantAt = 9;
constexpr std::size_t kGuestsAt = 13;
constexpr std::size_t kDensityAt = 21;
constexpr std::size_t kAddGuestsAt = 29;
constexpr std::size_t kAddLinksAt = 37;
constexpr std::size_t kSeedAt = 45;
constexpr std::size_t kElementAt = 53;
constexpr std::size_t kTierAt = 57;
constexpr std::size_t kReplicaNAt = 58;
constexpr std::size_t kReplicaKAt = 62;
constexpr std::size_t kHostsAt = 66;  // u64 count, then u32 members

// Byte offsets within the header frame: the "churn-trace" tag (u64 length
// + 11 bytes), the version, the MTTF tag, then the profile's doubles.
constexpr std::size_t kVersionAt = 19;
constexpr std::size_t kMttfAt = 23;
constexpr std::size_t kMemLoAt = 40;
constexpr std::size_t kFractionAt = 104;

// An EVENT_BEGIN payload is its type byte and u64 index, then the event.
constexpr std::size_t kEventInBegin = 9;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TenantEvent arrive_event() {
  TenantEvent ev;
  ev.time = 1.0;
  ev.kind = EventKind::kArrive;
  ev.tenant = 1;
  ev.guest_count = 4;
  ev.density = 0.5;
  ev.seed = 7;
  return ev;
}

TenantEvent grow_event() {
  TenantEvent ev;
  ev.time = 1.0;
  ev.kind = EventKind::kGrow;
  ev.tenant = 1;
  ev.add_guests = 2;
  ev.add_links = 1;
  ev.seed = 9;
  return ev;
}

TenantEvent depart_event() {
  TenantEvent ev;
  ev.time = 1.0;
  ev.kind = EventKind::kDepart;
  ev.tenant = 1;
  return ev;
}

TenantEvent host_fail_event() {
  TenantEvent ev;
  ev.time = 1.0;
  ev.kind = EventKind::kHostFail;
  ev.element = 2;
  return ev;
}

TenantEvent group_event(EventKind kind) {
  TenantEvent ev;
  ev.time = 1.0;
  ev.kind = kind;
  ev.element = 9;
  ev.group_hosts = {2, 3};
  ev.group_links = {0, 4};
  return ev;
}

std::string encode(std::vector<TenantEvent> events) {
  return io::write_trace(
      {workload::high_level_profile(), {}, std::move(events)});
}

std::vector<std::string> payloads_of(const std::string& bytes) {
  io::FrameScan scan;
  EXPECT_FALSE(io::scan_frames(bytes, scan).has_value());
  return {scan.frames.begin(), scan.frames.end()};
}

/// Frames every payload again, each with a valid CRC.
std::string reframe(const std::vector<std::string>& payloads) {
  std::string out;
  for (const std::string& p : payloads) io::append_frame(out, p);
  return out;
}

/// Changes an event's (or header's) encoding in place.
using Doctor = std::function<void(std::string&)>;

Doctor set_le(std::size_t at, std::uint64_t value, std::size_t width) {
  return [=](std::string& bytes) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xFFU);
    }
  };
}
Doctor set_u8(std::size_t at, std::uint8_t v) { return set_le(at, v, 1); }
Doctor set_u32(std::size_t at, std::uint32_t v) { return set_le(at, v, 4); }
Doctor set_u64(std::size_t at, std::uint64_t v) { return set_le(at, v, 8); }
Doctor set_f64(std::size_t at, double v) {
  return set_le(at, std::bit_cast<std::uint64_t>(v), 8);
}
Doctor cut_to(std::size_t size) {
  return [=](std::string& bytes) { bytes.resize(size); };
}

/// Re-encodes the event with a changed field — for a change of a group's
/// length, which a fixed-width patch cannot make.
Doctor reencode(TenantEvent ev, const std::function<void(TenantEvent&)>& f) {
  f(ev);
  return [ev](std::string& bytes) {
    bytes.clear();
    io::put_event(bytes, ev);
  };
}

std::string trace_refusal(const std::string& bytes) {
  const auto parsed = io::read_trace(bytes);
  if (!std::holds_alternative<io::TraceParseError>(parsed)) {
    ADD_FAILURE() << "the trace was accepted";
    return {};
  }
  return std::get<io::TraceParseError>(parsed).message;
}

std::string journal_refusal(const std::string& bytes) {
  try {
    (void)recovery::parse_journal(bytes);
  } catch (const recovery::RecoveryError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the journal was accepted";
  return {};
}

/// `valid` as the only event of a trace (frame 1), doctored and re-framed.
std::string doctored_trace(const TenantEvent& valid, const Doctor& doctor) {
  std::vector<std::string> frames = payloads_of(encode({valid}));
  doctor(frames[1]);
  return reframe(frames);
}

/// `valid` as the EVENT_BEGIN (record 0) of a one-group journal, doctored
/// and re-framed.
std::string doctored_journal(const TenantEvent& valid, const Doctor& doctor) {
  std::string journal;
  recovery::JournalWriter w(journal);
  w.event_begin(0, valid);
  w.event_end(0, valid.time, 0);
  std::vector<std::string> records = payloads_of(journal);
  std::string event = records[0].substr(kEventInBegin);
  doctor(event);
  records[0] = records[0].substr(0, kEventInBegin) + event;
  return reframe(records);
}

/// Both decoders refuse the doctored event with `reason`, naming where.
void expect_refused(const TenantEvent& valid, const Doctor& doctor,
                    const std::string& reason) {
  const std::string t = trace_refusal(doctored_trace(valid, doctor));
  EXPECT_TRUE(contains(t, "trace frame 1: " + reason)) << t;
  const std::string j = journal_refusal(doctored_journal(valid, doctor));
  EXPECT_TRUE(contains(j, "journal record 0 is malformed: " + reason)) << j;
}

/// Both decoders accept the doctored event and return the same one.
void expect_accepted(const TenantEvent& valid, const Doctor& doctor) {
  const auto parsed = io::read_trace(doctored_trace(valid, doctor));
  ASSERT_TRUE(std::holds_alternative<workload::ChurnTrace>(parsed))
      << std::get<io::TraceParseError>(parsed).message;
  const auto& events = std::get<workload::ChurnTrace>(parsed).events;
  ASSERT_EQ(events.size(), 1u);
  const auto records =
      recovery::parse_journal(doctored_journal(valid, doctor)).records;
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].event, events[0]);
}

TEST(TraceMalformed, UntouchedFramesAreAccepted) {
  // The baseline every doctored case departs from.
  const Doctor none = [](std::string&) {};
  for (const TenantEvent& ev :
       {arrive_event(), grow_event(), depart_event(), host_fail_event(),
        group_event(EventKind::kBlastFail),
        group_event(EventKind::kPowerRecover)}) {
    expect_accepted(ev, none);
  }
}

TEST(TraceMalformed, UnknownEventKindIsRejected) {
  expect_refused(depart_event(), set_u8(kKindAt, 11),
                 "event kind 11 out of range");
  expect_refused(depart_event(), set_u8(kKindAt, 255),
                 "event kind 255 out of range");
}

TEST(TraceMalformed, UnknownTierTagIsRejected) {
  expect_refused(arrive_event(), set_u8(kTierAt, 3),
                 "event sla tier 3 out of range");
  expect_accepted(arrive_event(), set_u8(kTierAt, 2));  // best-effort
}

TEST(TraceMalformed, NegativeAndNonFiniteTimesAreRejected) {
  for (const double t : {-0.5, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    expect_refused(depart_event(), set_f64(kTimeAt, t),
                   "event time must be finite and non-negative");
  }
  expect_accepted(depart_event(), set_f64(kTimeAt, 0.0));
}

TEST(TraceMalformed, CountOverflowIsRejectedNotWrapped) {
  // A count from 2^32 up is refused before anything is sized from it.
  expect_refused(arrive_event(), set_u64(kGuestsAt, 1ULL << 32),
                 "'event.guest_count' 4294967296 is not below 2^32");
  expect_refused(arrive_event(), set_u64(kGuestsAt, 1ULL << 40),
                 "'event.guest_count' 1099511627776 is not below 2^32");
  expect_refused(grow_event(), set_u64(kAddGuestsAt, ~0ULL),
                 "'event.add_guests' 18446744073709551615 is not below");
  expect_refused(grow_event(), set_u64(kAddLinksAt, 1ULL << 32),
                 "'event.add_links' 4294967296 is not below 2^32");
  expect_accepted(arrive_event(), set_u64(kGuestsAt, 0xFFFFFFFFULL));
}

TEST(TraceMalformed, HugeGuestCountIsARecoveryErrorNotAnAllocation) {
  // Recovery replays an EVENT_BEGIN by materializing its venv; a 2^40-guest
  // arrive must be refused while the journal is parsed.
  const auto cluster = hmn::test::line_cluster(4);
  const std::string journal = doctored_journal(
      arrive_event(), set_u64(kGuestsAt, 1ULL << 40));
  orchestrator::Orchestrator orch(cluster, workload::high_level_profile());
  try {
    (void)recovery::recover(orch, journal);
    FAIL() << "expected RecoveryError";
  } catch (const recovery::RecoveryError& e) {
    EXPECT_TRUE(contains(e.what(), "event.guest_count")) << e.what();
  }
}

TEST(TraceMalformed, DensityOutsideUnitIntervalIsRejected) {
  for (const double d : {1.5, -0.2, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    expect_refused(arrive_event(), set_f64(kDensityAt, d),
                   "arrive density must be in [0, 1]");
  }
  expect_accepted(arrive_event(), set_f64(kDensityAt, 0.0));
  expect_accepted(arrive_event(), set_f64(kDensityAt, 1.0));
}

TEST(TraceMalformed, DegenerateReplicaSpecIsRejected) {
  // n < 2 is not replication, k = 0 is vacuous, k > n is unsatisfiable,
  // and a k without an n is half a spec.
  const std::pair<std::uint32_t, std::uint32_t> specs[] = {
      {1, 1}, {3, 0}, {2, 3}, {0, 2}};
  for (const auto& spec : specs) {
    expect_refused(
        arrive_event(),
        [spec](std::string& bytes) {
          set_u32(kReplicaNAt, spec.first)(bytes);
          set_u32(kReplicaKAt, spec.second)(bytes);
        },
        "replica spec needs 0/0, or n >= 2 and 1 <= k <= n");
  }
  expect_accepted(arrive_event(), [](std::string& bytes) {
    set_u32(kReplicaNAt, 3)(bytes);
    set_u32(kReplicaKAt, 3)(bytes);
  });
}

TEST(TraceMalformed, TierOnNonArriveLineIsRejected) {
  // Tier and replica declarations belong to arrive events only.
  expect_refused(grow_event(), set_u8(kTierAt, 0),
                 "'event.sla_tier' is not used by grow events");
  expect_refused(depart_event(),
                 [](std::string& bytes) {
                   set_u32(kReplicaNAt, 3)(bytes);
                   set_u32(kReplicaKAt, 2)(bytes);
                 },
                 "'event.replica_n' is not used by depart events");
  expect_refused(host_fail_event(),
                 [](std::string& bytes) {
                   set_u32(kReplicaNAt, 2)(bytes);
                   set_u32(kReplicaKAt, 2)(bytes);
                 },
                 "'event.replica_n' is not used by host-fail events");
}

TEST(TraceMalformed, FieldsTheKindDoesNotUseMustStayDefault) {
  // The readable view shows only the fields an event's kind uses, so a
  // frame carrying any other is refused, naming the field.
  expect_refused(host_fail_event(), set_u32(kTenantAt, 5),
                 "'event.tenant' is not used by host-fail events");
  expect_refused(grow_event(), set_u64(kGuestsAt, 3),
                 "'event.guest_count' is not used by grow events");
  expect_refused(depart_event(), set_f64(kDensityAt, 0.5),
                 "'event.density' is not used by depart events");
  // -0.0 compares equal to the default but is not its bit pattern.
  expect_refused(depart_event(), set_f64(kDensityAt, -0.0),
                 "'event.density' is not used by depart events");
  expect_refused(arrive_event(), set_u64(kAddGuestsAt, 1),
                 "'event.add_guests' is not used by arrive events");
  expect_refused(depart_event(), set_u64(kAddLinksAt, 1),
                 "'event.add_links' is not used by depart events");
  expect_refused(depart_event(), set_u64(kSeedAt, 42),
                 "'event.seed' is not used by depart events");
  expect_refused(arrive_event(), set_u32(kElementAt, 3),
                 "'event.element' is not used by arrive events");
  expect_refused(host_fail_event(),
                 reencode(host_fail_event(),
                          [](TenantEvent& ev) { ev.group_hosts = {1}; }),
                 "'event.group_hosts' is not used by host-fail events");
  expect_refused(grow_event(),
                 reencode(grow_event(),
                          [](TenantEvent& ev) { ev.group_links = {1}; }),
                 "'event.group_links' is not used by grow events");
}

TEST(TraceMalformed, DuplicateOrUnsortedBlastMemberIsRejected) {
  // group_hosts {2, 3}: member 1 sits after the u64 count and member 0.
  const std::size_t second_host = kHostsAt + 8 + 4;
  expect_refused(group_event(EventKind::kBlastFail), set_u32(second_host, 2),
                 "duplicate or unsorted member 2 in 'event.group_hosts' at "
                 "offset 1");
  // group_links {0, 4} follows the two hosts.
  const std::size_t second_link = kHostsAt + 8 + 8 + 8 + 4;
  expect_refused(group_event(EventKind::kPowerFail), set_u32(second_link, 0),
                 "duplicate or unsorted member 0 in 'event.group_links'");
}

TEST(TraceMalformed, EmptyPowerGroupIsRejected) {
  // A power domain that feeds nothing cannot exist.
  expect_refused(group_event(EventKind::kPowerRecover),
                 reencode(group_event(EventKind::kPowerRecover),
                          [](TenantEvent& ev) {
                            ev.group_hosts.clear();
                            ev.group_links.clear();
                          }),
                 "power-recover event: empty correlated group");
  // One-sided groups are fine: a leaf domain may feed only hosts.
  expect_accepted(group_event(EventKind::kPowerFail),
                  reencode(group_event(EventKind::kPowerFail),
                           [](TenantEvent& ev) { ev.group_links.clear(); }));
}

TEST(TraceMalformed, FailureEventNeedsSaneElement) {
  // A failure frame cut before its element is refused, naming the field.
  expect_refused(host_fail_event(), cut_to(kElementAt + 2),
                 "truncated field 'event.element'");
}

TEST(TraceMalformed, TruncatedBlastGroupIsRejected) {
  // The member count promises two hosts; one survives.
  expect_refused(group_event(EventKind::kBlastFail), cut_to(kHostsAt + 8 + 4),
                 "truncated field 'event.group_hosts'");
  expect_refused(group_event(EventKind::kBlastRecover),
                 cut_to(kHostsAt + 8 + 8 + 3),
                 "truncated field 'event.group_links'");
}

TEST(TraceMalformed, TruncatedPowerGroupIsRejected) {
  expect_refused(group_event(EventKind::kPowerFail), cut_to(kHostsAt + 5),
                 "truncated field 'event.group_hosts'");
}

TEST(TraceMalformed, TrailingBytesInsideAFrameAreRejected) {
  const Doctor extra = [](std::string& bytes) { bytes += '\0'; };
  const std::string t = trace_refusal(doctored_trace(depart_event(), extra));
  EXPECT_TRUE(contains(t, "trace frame 1: trailing bytes after a complete "
                          "event"))
      << t;
  const std::string j =
      journal_refusal(doctored_journal(depart_event(), extra));
  EXPECT_TRUE(contains(j, "journal record 0 is malformed: trailing bytes"))
      << j;
}

TEST(TraceMalformed, TornTailIsRejected) {
  // A journal truncates a torn tail; a trace is written whole, so a cut
  // one is refused.
  const std::string bytes = encode({arrive_event(), depart_event()});
  const std::string t = trace_refusal(bytes.substr(0, bytes.size() - 5));
  EXPECT_TRUE(contains(t, "torn frame")) << t;
}

TEST(TraceMalformed, BadCrcIsRejected) {
  std::string bytes = encode({arrive_event(), depart_event()});
  // Inside the arrive frame, which a frame follows: corruption.
  const std::size_t header_frame = 8 + payloads_of(bytes)[0].size();
  bytes[header_frame + 8 + kSeedAt] ^= 0x01;
  const std::string t = trace_refusal(bytes);
  EXPECT_TRUE(contains(t, "trace corrupted")) << t;
  EXPECT_TRUE(contains(t, "fails its CRC-32 check")) << t;
}

TEST(TraceMalformed, DuplicateTenantArrivalIsRejected) {
  TenantEvent again = arrive_event();
  again.time = 2.0;
  const std::string t = trace_refusal(encode({arrive_event(), again}));
  EXPECT_TRUE(contains(t, "trace frame 2: duplicate arrive for tenant 1"))
      << t;
}

TEST(TraceMalformed, EventsOutOfTimeOrderAreRejected) {
  TenantEvent arrive = arrive_event();
  arrive.time = 5.0;
  TenantEvent depart = depart_event();
  depart.time = 3.0;
  const std::string t = trace_refusal(encode({arrive, depart}));
  EXPECT_TRUE(contains(t, "trace frame 2: event time 3 precedes the "
                          "previous event's 5"))
      << t;
  // Equal times are legal: merge_events emits ties.
  depart.time = 5.0;
  EXPECT_EQ(io::read_trace_or_throw(encode({arrive, depart})).events.size(),
            2u);
}

TEST(TraceMalformed, UnknownMttfDistTagIsRejected) {
  std::vector<std::string> frames = payloads_of(encode({}));
  set_u8(kMttfAt, 3)(frames[0]);
  const std::string t = trace_refusal(reframe(frames));
  EXPECT_TRUE(contains(t, "trace frame 0: unknown mttf_dist tag 3")) << t;
}

TEST(TraceMalformed, UnsupportedVersionIsRejected) {
  // Version 4 is the only version written or read; an older one is
  // refused like a newer one, naming the version.
  for (const std::uint32_t version : {3U, 5U}) {
    std::vector<std::string> frames = payloads_of(encode({}));
    set_u32(kVersionAt, version)(frames[0]);
    const std::string t = trace_refusal(reframe(frames));
    EXPECT_TRUE(contains(t, "unsupported trace version " +
                                std::to_string(version)))
        << t;
    EXPECT_TRUE(contains(t, "only version 4")) << t;
  }
}

TEST(TraceMalformed, MalformedHeaderProfileIsRejected) {
  const auto refused = [](const Doctor& doctor) {
    std::vector<std::string> frames = payloads_of(encode({}));
    doctor(frames[0]);
    return trace_refusal(reframe(frames));
  };
  const std::string nan = refused(
      set_f64(kMemLoAt, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(contains(nan, "trace frame 0: profile range 'mem_mb'")) << nan;
  const std::string inverted = refused(set_f64(kMemLoAt, 1e12));
  EXPECT_TRUE(contains(inverted, "'mem_mb' must be finite with lo <= hi"))
      << inverted;
  const std::string fraction = refused(set_f64(kFractionAt, 1.5));
  EXPECT_TRUE(contains(fraction, "critical_link_fraction must be in [0, 1]"))
      << fraction;
}

/// Decoding returns the same profile, tag and events, and re-encoding the
/// same bytes.
void expect_exact_round_trip(const workload::ChurnTrace& trace) {
  const std::string once = io::write_trace(trace);
  const auto parsed = io::read_trace_or_throw(once);
  EXPECT_EQ(parsed.events, trace.events);
  EXPECT_EQ(parsed.mttf_dist, trace.mttf_dist);
  EXPECT_EQ(io::trace_to_jsonl(parsed), io::trace_to_jsonl(trace));
  EXPECT_EQ(io::write_trace(parsed), once);
}

TEST(TraceMalformed, FailureEventsRoundTripByteIdentical) {
  // A merged churn + failure stream survives write -> read -> write.
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.6;
  copts.horizon = 25.0;
  copts.profile = workload::high_level_profile();
  workload::ChurnTrace trace = workload::generate_churn(copts, 404);

  workload::FailureOptions fopts;
  fopts.horizon = copts.horizon;
  fopts.host_mttf = 10.0;
  fopts.link_mttf = 8.0;
  workload::merge_events(
      trace,
      workload::generate_failures(fopts, hmn::test::line_cluster(4), 405));
  EXPECT_TRUE(contains(io::trace_to_jsonl(trace), "\"version\":4"));
  expect_exact_round_trip(trace);
}

TEST(TraceMalformed, BlastStreamRoundTripsByteIdentical) {
  // A blast-laden trace with a non-default MTTF tag and critical-link
  // fraction survives write -> read -> write bytewise.
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.5;
  copts.horizon = 30.0;
  copts.profile = workload::high_level_profile();
  copts.profile.critical_link_fraction = 0.4;
  workload::ChurnTrace trace = workload::generate_churn(copts, 512);
  trace.mttf_dist = workload::MttfDistribution::kLognormal;

  const auto cluster = model::PhysicalCluster::build(
      topology::star(4),
      std::vector<model::HostCapacity>(4, {1000, 4096, 4096}), {1000.0, 5.0});
  workload::FailureOptions fopts;
  fopts.horizon = copts.horizon;
  fopts.blast_mttf = 10.0;
  fopts.mttf_dist = workload::MttfDistribution::kLognormal;
  workload::merge_events(trace,
                         workload::generate_failures(fopts, cluster, 513));

  const std::string view = io::trace_to_jsonl(trace);
  EXPECT_TRUE(contains(view, "\"mttf_dist\":\"lognormal\""));
  EXPECT_TRUE(contains(view, "\"critical_link_fraction\":0.4"));
  EXPECT_TRUE(contains(view, "blast-fail"));
  expect_exact_round_trip(trace);
  EXPECT_EQ(io::read_trace_or_throw(io::write_trace(trace))
                .profile.critical_link_fraction,
            0.4);
}

TEST(TraceMalformed, TierReplicaPowerStreamRoundTripsByteIdentical) {
  // Tiers, replica specs and growth, with host, link, blast and one-crew
  // power events, all survive write -> read -> write bytewise.
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.6;
  copts.horizon = 30.0;
  copts.profile = workload::high_level_profile();
  copts.grow_probability = 0.5;
  copts.replica_probability = 0.5;
  copts.gold_fraction = 0.3;
  copts.best_effort_fraction = 0.3;
  workload::ChurnTrace trace = workload::generate_churn(copts, 640);

  const auto cluster = model::PhysicalCluster::build(
      topology::switch_tree(12, 4, 2),
      std::vector<model::HostCapacity>(12, {1000, 4096, 4096}),
      {1000.0, 5.0});
  workload::FailureOptions fopts;
  fopts.horizon = copts.horizon;
  fopts.host_mttf = 20.0;
  fopts.link_mttf = 20.0;
  fopts.blast_mttf = 15.0;
  fopts.power_mttf = 8.0;
  fopts.power_domains = 3;
  workload::merge_events(trace,
                         workload::generate_failures(fopts, cluster, 641));

  const std::string view = io::trace_to_jsonl(trace);
  for (const char* shape :
       {"\"tier\":\"gold\"", "\"tier\":\"best-effort\"", "\"replica_n\":",
        "\"ev\":\"grow\"", "\"ev\":\"host-fail\"", "\"ev\":\"link-fail\"",
        "\"ev\":\"blast-fail\"", "\"ev\":\"power-fail\""}) {
    EXPECT_TRUE(contains(view, shape)) << shape;
  }
  expect_exact_round_trip(trace);
}

}  // namespace
