// Tests for the churn-trace format: an exact binary round trip both ways,
// seed precision, frame-numbered errors, files, and the readable JSONL view.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <variant>

#include "io/binfmt.h"
#include "io/trace.h"
#include "workload/churn.h"

namespace {

using namespace hmn;
using workload::EventKind;

workload::ChurnTrace sample_trace() {
  workload::ChurnOptions opts;
  opts.arrival_rate = 0.8;
  opts.horizon = 30.0;
  opts.profile = workload::high_level_profile();
  opts.grow_probability = 0.6;
  return workload::generate_churn(opts, 20090922);
}

TEST(Trace, RoundTripIsByteIdentical) {
  const auto trace = sample_trace();
  ASSERT_FALSE(trace.events.empty());
  const std::string once = io::write_trace(trace);
  const auto parsed = io::read_trace_or_throw(once);
  EXPECT_EQ(parsed.events, trace.events);
  EXPECT_EQ(io::write_trace(parsed), once);
}

TEST(Trace, SeedsSurvive64Bits) {
  workload::ChurnTrace trace;
  trace.profile = workload::high_level_profile();
  workload::TenantEvent ev;
  ev.time = 1.25;
  ev.kind = EventKind::kArrive;
  ev.tenant = 0;
  ev.guest_count = 4;
  ev.density = 0.2;
  ev.seed = 0xFFFFFFFFFFFFFFFFULL;  // would be mangled as a JSON double
  trace.events.push_back(ev);
  const auto parsed = io::read_trace_or_throw(io::write_trace(trace));
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].seed, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_NE(
      io::trace_to_jsonl(trace).find("\"seed\":\"18446744073709551615\""),
      std::string::npos);
}

TEST(Trace, ReportsErrorsWithFrameNumbers) {
  auto expect_error = [](const std::string& bytes, const std::string& where) {
    const auto parsed = io::read_trace(bytes);
    ASSERT_TRUE(std::holds_alternative<io::TraceParseError>(parsed)) << where;
    const std::string& message = std::get<io::TraceParseError>(parsed).message;
    EXPECT_NE(message.find(where), std::string::npos) << message;
  };
  expect_error("", "empty trace: no header frame");

  workload::TenantEvent depart;
  depart.time = 1.0;
  depart.kind = EventKind::kDepart;
  depart.tenant = 3;
  std::string event_payload;
  io::put_event(event_payload, depart);

  // An event where the header belongs.
  expect_error(io::encode_frame(event_payload),
               "trace frame 0: missing churn-trace header");

  // A bad third event: the header is frame 0, so it is frame 3.
  const std::string header =
      io::write_trace({workload::high_level_profile(), {}, {}});
  std::string bytes = header;
  io::append_frame(bytes, event_payload);
  io::append_frame(bytes, event_payload);
  workload::TenantEvent bad = depart;
  bad.time = -1.0;
  std::string bad_payload;
  io::put_event(bad_payload, bad);
  io::append_frame(bytes, bad_payload);
  expect_error(bytes, "trace frame 3: event time must be finite");
}

TEST(Trace, FileRoundTrip) {
  const auto trace = sample_trace();
  const auto path =
      std::filesystem::temp_directory_path() / "hmn_trace_test.bin";
  ASSERT_TRUE(io::save_trace(path, trace));
  const auto loaded = io::load_trace(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->events, trace.events);
}

TEST(Trace, LoadRejectsMissingFile) {
  EXPECT_FALSE(io::load_trace("/nonexistent/hmn_trace.bin").has_value());
}

TEST(Trace, JsonlViewShowsEveryFieldAFrameCarries) {
  // The readable view, pinned literally: a header line, then one
  // event_json object per event with exactly the fields its kind uses.
  workload::ChurnTrace trace;
  trace.profile = workload::high_level_profile();
  trace.profile.critical_link_fraction = 0.25;
  trace.mttf_dist = workload::MttfDistribution::kWeibull;
  workload::TenantEvent arrive;
  arrive.time = 0.5;
  arrive.kind = EventKind::kArrive;
  arrive.tenant = 7;
  arrive.guest_count = 5;
  arrive.density = 0.3;
  arrive.seed = 9007199254740993ULL;  // 2^53 + 1
  arrive.sla_tier = model::SlaTier::kGold;
  arrive.replica_n = 3;
  arrive.replica_k = 2;
  workload::TenantEvent grow;
  grow.time = 0.5 + 1.0 / 3.0;
  grow.kind = EventKind::kGrow;
  grow.tenant = 7;
  grow.add_guests = 2;
  grow.add_links = 1;
  grow.seed = 11;
  workload::TenantEvent host_fail;
  host_fail.time = 2.0;
  host_fail.kind = EventKind::kHostFail;
  host_fail.element = 4;
  workload::TenantEvent power;
  power.time = 2.0;
  power.kind = EventKind::kPowerFail;
  power.element = 1;
  power.group_hosts = {1, 5};
  power.group_links = {0, 4};
  workload::TenantEvent depart;
  depart.time = 3.0;
  depart.kind = EventKind::kDepart;
  depart.tenant = 7;
  trace.events = {arrive, grow, host_fail, power, depart};
  EXPECT_EQ(
      io::trace_to_jsonl(trace),
      "{\"type\":\"churn-trace\",\"version\":4,\"mttf_dist\":\"weibull\","
      "\"profile\":{\"proc_mips\":[50,100],\"mem_mb\":[128,256],"
      "\"stor_gb\":[100,200],\"link_bw_mbps\":[0.5,1],"
      "\"link_lat_ms\":[30,60],\"critical_link_fraction\":0.25}}\n"
      "{\"t\":0.5,\"ev\":\"arrive\",\"tenant\":7,\"guests\":5,"
      "\"density\":0.29999999999999999,\"seed\":\"9007199254740993\","
      "\"tier\":\"gold\",\"replica_n\":3,\"replica_k\":2}\n"
      "{\"t\":0.83333333333333326,\"ev\":\"grow\",\"tenant\":7,"
      "\"add_guests\":2,\"add_links\":1,\"seed\":\"11\"}\n"
      "{\"t\":2,\"ev\":\"host-fail\",\"element\":4}\n"
      "{\"t\":2,\"ev\":\"power-fail\",\"element\":1,\"hosts\":[1,5],"
      "\"links\":[0,4]}\n"
      "{\"t\":3,\"ev\":\"depart\",\"tenant\":7}\n");
}

}  // namespace
