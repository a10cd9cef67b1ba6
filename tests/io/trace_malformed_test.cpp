// Malformed-input corpus for the trace parser: every line here must come
// back as a descriptive TraceParseError carrying the offending line (and,
// for JSON-level damage, the byte offset) — never UB, never a silently
// wrapped number.
#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "io/trace.h"
#include "testing/fixtures.h"
#include "workload/churn.h"

namespace {

using namespace hmn;

std::string header() {
  return io::write_trace({workload::high_level_profile(), {}, {}});
}

/// Parses `text`, requires a parse error, and returns it for inspection.
io::TraceParseError must_fail(const std::string& text) {
  auto parsed = io::read_trace(text);
  if (!std::holds_alternative<io::TraceParseError>(parsed)) {
    ADD_FAILURE() << "expected a parse error for: " << text;
    return {};
  }
  return std::get<io::TraceParseError>(std::move(parsed));
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(TraceMalformed, SeedOverflowing64BitsIsRejected) {
  // 2^64 exactly: strtoull would saturate silently without the ERANGE check.
  const auto e = must_fail(
      header() +
      "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"guests\":4,"
      "\"density\":0.5,\"seed\":\"18446744073709551616\"}");
  EXPECT_EQ(e.line, 2u);
  EXPECT_TRUE(contains(e.message, "overflows 64 bits")) << e.message;
}

TEST(TraceMalformed, SeedWithNonDigitsIsRejected) {
  for (const char* seed : {"-1", "0x10", "12 34", ""}) {
    const auto e = must_fail(
        header() +
        "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"guests\":4,"
        "\"density\":0.5,\"seed\":\"" + std::string(seed) + "\"}");
    EXPECT_EQ(e.line, 2u) << seed;
    EXPECT_TRUE(contains(e.message, "decimal digit string")) << e.message;
  }
}

TEST(TraceMalformed, NegativeAndNonFiniteTimesAreRejected) {
  const auto neg = must_fail(header() +
                             "{\"t\":-0.5,\"ev\":\"depart\",\"tenant\":1}");
  EXPECT_EQ(neg.line, 2u);
  EXPECT_TRUE(contains(neg.message, "finite and non-negative"))
      << neg.message;
  // 1e999 overflows double to infinity; a bare NaN is not JSON at all.
  // Both must fail on line 2, whichever layer catches them.
  EXPECT_EQ(
      must_fail(header() + "{\"t\":1e999,\"ev\":\"depart\",\"tenant\":1}")
          .line,
      2u);
  EXPECT_EQ(
      must_fail(header() + "{\"t\":nan,\"ev\":\"depart\",\"tenant\":1}").line,
      2u);
}

TEST(TraceMalformed, CountOverflowIsRejectedNotWrapped) {
  // 2^32, a fraction, a negative, and an astronomically large double: all
  // must fail the integer-in-[0, 2^32) gate, none may wrap to a size_t.
  for (const char* guests : {"4294967296", "2.5", "-3", "1e300"}) {
    const auto e = must_fail(
        header() +
        "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"guests\":" +
        std::string(guests) + ",\"density\":0.5,\"seed\":\"7\"}");
    EXPECT_EQ(e.line, 2u) << guests;
    EXPECT_TRUE(contains(e.message, "[0, 2^32)")) << e.message;
  }
}

TEST(TraceMalformed, DuplicateTenantArrivalIsRejected) {
  const std::string arrive =
      "{\"t\":0,\"ev\":\"arrive\",\"tenant\":5,\"guests\":4,"
      "\"density\":0.5,\"seed\":\"7\"}";
  const auto e = must_fail(header() + arrive + "\n" + arrive);
  EXPECT_EQ(e.line, 3u);
  EXPECT_TRUE(contains(e.message, "duplicate arrive for tenant 5"))
      << e.message;
}

TEST(TraceMalformed, TruncatedLineReportsLineAndOffset) {
  // A line cut mid-token, as if the recording process died: the JSON error
  // surfaces with the line number and the byte offset inside it.
  const auto e = must_fail(header() + "{\"t\":0.5,\"ev\":\"arr");
  EXPECT_EQ(e.line, 2u);
  EXPECT_TRUE(contains(e.message, "line offset")) << e.message;
}

TEST(TraceMalformed, FailureEventNeedsSaneElement) {
  const auto missing =
      must_fail(header() + "{\"t\":1,\"ev\":\"host-fail\"}");
  EXPECT_EQ(missing.line, 2u);
  EXPECT_TRUE(contains(missing.message, "element")) << missing.message;
  for (const char* element : {"-1", "1.5", "4294967296", "\"zero\""}) {
    const auto e = must_fail(header() +
                             "{\"t\":1,\"ev\":\"link-fail\",\"element\":" +
                             std::string(element) + "}");
    EXPECT_EQ(e.line, 2u) << element;
  }
}

TEST(TraceMalformed, DensityOutsideUnitIntervalIsRejected) {
  for (const char* density : {"1.5", "-0.2"}) {
    const auto e = must_fail(
        header() +
        "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"guests\":4,"
        "\"density\":" + std::string(density) + ",\"seed\":\"7\"}");
    EXPECT_EQ(e.line, 2u) << density;
    EXPECT_TRUE(contains(e.message, "density")) << e.message;
  }
  // An overflowing density dies at the JSON layer; still line 2, not UB.
  EXPECT_EQ(must_fail(header() +
                      "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"guests\":4,"
                      "\"density\":1e999,\"seed\":\"7\"}")
                .line,
            2u);
}

TEST(TraceMalformed, FailureEventsRoundTripByteIdentical) {
  // The healthy-path counterpart: a merged churn + failure stream survives
  // write -> read -> write byte-for-byte.
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

  const std::string once = io::write_trace(trace);
  EXPECT_TRUE(contains(once, "\"version\":4"));
  const auto parsed = io::read_trace_or_throw(once);
  EXPECT_EQ(parsed.events, trace.events);
  EXPECT_EQ(io::write_trace(parsed), once);
}

// --- Blast groups and header tags ----------------------------------------

std::string blast_line(const std::string& hosts, const std::string& links) {
  return "{\"t\":1,\"ev\":\"blast-fail\",\"element\":9" +
         (hosts.empty() ? std::string() : ",\"hosts\":" + hosts) +
         (links.empty() ? std::string() : ",\"links\":" + links) + "}";
}

TEST(TraceMalformed, TruncatedBlastGroupIsRejected) {
  // A blast line without both member arrays is a truncated group, and the
  // reason names the missing array.
  const auto no_hosts = must_fail(header() + blast_line("", "[0,1]"));
  EXPECT_EQ(no_hosts.line, 2u);
  EXPECT_TRUE(contains(no_hosts.message, "truncated blast group"))
      << no_hosts.message;
  EXPECT_TRUE(contains(no_hosts.message, "'hosts'")) << no_hosts.message;

  const auto no_links = must_fail(header() + blast_line("[2,3]", ""));
  EXPECT_EQ(no_links.line, 2u);
  EXPECT_TRUE(contains(no_links.message, "'links'")) << no_links.message;

  // Non-array member lists count as truncation too.
  const auto scalar = must_fail(header() + blast_line("7", "[0]"));
  EXPECT_TRUE(contains(scalar.message, "truncated blast group"))
      << scalar.message;
}

TEST(TraceMalformed, DuplicateOrUnsortedBlastMemberIsRejected) {
  const auto dup = must_fail(header() + blast_line("[2,2]", "[0]"));
  EXPECT_EQ(dup.line, 2u);
  EXPECT_TRUE(contains(dup.message, "duplicate or unsorted member 2"))
      << dup.message;
  EXPECT_TRUE(contains(dup.message, "offset 1")) << dup.message;

  const auto unsorted = must_fail(header() + blast_line("[0]", "[5,1]"));
  EXPECT_TRUE(contains(unsorted.message, "duplicate or unsorted member 1"))
      << unsorted.message;
  EXPECT_TRUE(contains(unsorted.message, "'links'")) << unsorted.message;
}

TEST(TraceMalformed, NonIntegerBlastMemberIsRejected) {
  for (const char* hosts : {"[1.5]", "[-1]", "[4294967296]", "[\"x\"]"}) {
    const auto e =
        must_fail(header() + blast_line(std::string(hosts), "[0]"));
    EXPECT_EQ(e.line, 2u) << hosts;
    EXPECT_TRUE(contains(e.message, "integer in [0, 2^32)")) << e.message;
  }
}

TEST(TraceMalformed, UnknownMttfDistTagIsRejected) {
  std::string h = header();
  const auto pos = h.find("exponential");
  ASSERT_NE(pos, std::string::npos);
  h.replace(pos, std::string("exponential").size(), "gamma");
  const auto e = must_fail(h);
  EXPECT_EQ(e.line, 1u);
  EXPECT_TRUE(contains(e.message, "unknown mttf_dist tag 'gamma'"))
      << e.message;
}

TEST(TraceMalformed, UnsupportedVersionIsRejected) {
  // Version 4 is the only version the writer emits and the reader reads;
  // an older one is refused like a newer one, naming the version.
  for (const char* version : {"3", "5"}) {
    std::string h = header();
    const auto pos = h.find("\"version\":4");
    ASSERT_NE(pos, std::string::npos);
    h.replace(pos, std::string("\"version\":4").size(),
              std::string("\"version\":") + version);
    const auto e = must_fail(h);
    EXPECT_EQ(e.line, 1u);
    EXPECT_TRUE(contains(e.message,
                         std::string("unsupported trace version ") + version))
        << e.message;
    EXPECT_TRUE(contains(e.message, "only version 4")) << e.message;
  }
}

TEST(TraceMalformed, BlastStreamRoundTripsByteIdentical) {
  // Healthy path: a blast-laden trace with a non-default MTTF tag and
  // critical-link fraction survives write -> read -> write bytewise.
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

  const std::string once = io::write_trace(trace);
  EXPECT_TRUE(contains(once, "\"mttf_dist\":\"lognormal\""));
  EXPECT_TRUE(contains(once, "\"critical_link_fraction\":0.4"));
  EXPECT_TRUE(contains(once, "blast-fail"));
  const auto parsed = io::read_trace_or_throw(once);
  EXPECT_EQ(parsed.events, trace.events);
  EXPECT_EQ(parsed.mttf_dist, trace.mttf_dist);
  EXPECT_EQ(parsed.profile.critical_link_fraction, 0.4);
  EXPECT_EQ(io::write_trace(parsed), once);
}

// --- SLA tiers, replica specs, power-domain events ------------------------

std::string arrive_line(const std::string& extra) {
  return "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"guests\":4,"
         "\"density\":0.5,\"seed\":\"7\"" +
         extra + "}";
}

TEST(TraceMalformed, UnknownTierTagIsRejected) {
  const auto e = must_fail(header() + arrive_line(",\"tier\":\"platinum\""));
  EXPECT_EQ(e.line, 2u);
  EXPECT_TRUE(contains(e.message, "unknown tier tag 'platinum'"))
      << e.message;
  // Non-string tiers are shape errors, not unknown tags.
  const auto num = must_fail(header() + arrive_line(",\"tier\":1"));
  EXPECT_TRUE(contains(num.message, "tier must be a string")) << num.message;
}

TEST(TraceMalformed, LoneReplicaMemberIsRejected) {
  // replica_n and replica_k only make sense as a pair; a lone member is a
  // truncated spec, whichever half survived.
  for (const char* extra : {",\"replica_n\":3", ",\"replica_k\":2"}) {
    const auto e = must_fail(header() + arrive_line(extra));
    EXPECT_EQ(e.line, 2u) << extra;
    EXPECT_TRUE(contains(e.message, "must appear together")) << e.message;
  }
}

TEST(TraceMalformed, DegenerateReplicaSpecIsRejected) {
  // n < 2 is not replication, k = 0 is vacuous, k > n is unsatisfiable.
  for (const char* extra :
       {",\"replica_n\":1,\"replica_k\":1", ",\"replica_n\":3,\"replica_k\":0",
        ",\"replica_n\":2,\"replica_k\":3"}) {
    const auto e = must_fail(header() + arrive_line(extra));
    EXPECT_EQ(e.line, 2u) << extra;
    EXPECT_TRUE(contains(e.message, "n >= 2 and 1 <= k <= n")) << e.message;
  }
}

TEST(TraceMalformed, TruncatedPowerGroupIsRejected) {
  // Power events share the blast group shape: element + both member arrays.
  const auto e = must_fail(
      header() + "{\"t\":1,\"ev\":\"power-fail\",\"element\":0,"
                 "\"links\":[0]}");
  EXPECT_EQ(e.line, 2u);
  EXPECT_TRUE(contains(e.message, "power-fail event")) << e.message;
  EXPECT_TRUE(contains(e.message, "'hosts'")) << e.message;
}

TEST(TraceMalformed, TierReplicaPowerStreamRoundTripsByteIdentical) {
  // Healthy v4 path: tiers, replica specs, and one-crew power events all
  // survive write -> read -> write bytewise.
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.6;
  copts.horizon = 30.0;
  copts.profile = workload::high_level_profile();
  copts.replica_probability = 0.5;
  copts.gold_fraction = 0.3;
  copts.best_effort_fraction = 0.3;
  workload::ChurnTrace trace = workload::generate_churn(copts, 640);

  const auto cluster = hmn::test::line_cluster(6);
  workload::FailureOptions fopts;
  fopts.horizon = copts.horizon;
  fopts.power_mttf = 8.0;
  fopts.power_domains = 3;
  workload::merge_events(trace,
                         workload::generate_failures(fopts, cluster, 641));

  const std::string once = io::write_trace(trace);
  EXPECT_TRUE(contains(once, "\"version\":4"));
  EXPECT_TRUE(contains(once, "\"tier\":\"gold\""));
  EXPECT_TRUE(contains(once, "\"replica_n\":"));
  EXPECT_TRUE(contains(once, "power-fail"));
  const auto parsed = io::read_trace_or_throw(once);
  EXPECT_EQ(parsed.events, trace.events);
  EXPECT_EQ(io::write_trace(parsed), once);
}

TEST(TraceMalformed, TierOnNonArriveLineIsRejected) {
  // v4 field discipline: tier/replica declarations belong to arrive lines
  // only.  Anywhere else is a mangled trace and the field is named.
  const auto on_grow = must_fail(
      header() +
      "{\"t\":1,\"ev\":\"grow\",\"tenant\":1,\"add_guests\":1,"
      "\"add_links\":0,\"seed\":\"9\",\"tier\":\"gold\"}");
  EXPECT_EQ(on_grow.line, 2u);
  EXPECT_TRUE(contains(on_grow.message,
                       "'tier' is only valid on arrive events"))
      << on_grow.message;
  EXPECT_TRUE(contains(on_grow.message, "grow line")) << on_grow.message;

  const auto on_depart = must_fail(
      header() +
      "{\"t\":1,\"ev\":\"depart\",\"tenant\":1,\"replica_n\":3}");
  EXPECT_EQ(on_depart.line, 2u);
  EXPECT_TRUE(contains(on_depart.message, "'replica_n'"))
      << on_depart.message;

  const auto on_fail = must_fail(
      header() +
      "{\"t\":1,\"ev\":\"host-fail\",\"element\":0,\"replica_k\":2}");
  EXPECT_TRUE(contains(on_fail.message, "'replica_k'")) << on_fail.message;
}

TEST(TraceMalformed, EmptyPowerGroupIsRejected) {
  // A power domain that feeds nothing cannot exist: both member arrays
  // empty means a truncated writer, not a degenerate-but-valid event.
  const auto e = must_fail(
      header() +
      "{\"t\":1,\"ev\":\"power-recover\",\"element\":0,\"hosts\":[],"
      "\"links\":[]}");
  EXPECT_EQ(e.line, 2u);
  EXPECT_TRUE(contains(e.message, "empty correlated group")) << e.message;
  // One-sided groups are fine — a leaf domain may feed only hosts.
  const auto ok = io::read_trace_or_throw(
      header() +
      "{\"t\":1,\"ev\":\"power-fail\",\"element\":0,\"hosts\":[0,1],"
      "\"links\":[]}");
  ASSERT_EQ(ok.events.size(), 1u);
  EXPECT_EQ(ok.events[0].group_hosts.size(), 2u);
}

}  // namespace
