// Tests for the JSONL churn-trace format: byte-for-byte round trip, seed
// precision, and parse-error reporting.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <variant>

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
}

TEST(Trace, BlankLinesAreIgnored) {
  const auto trace = sample_trace();
  std::string text = "\n";
  text += io::write_trace(trace);
  text += "\n\n";
  EXPECT_EQ(io::read_trace_or_throw(text).events, trace.events);
}

TEST(Trace, ReportsErrorsWithLineNumbers) {
  auto expect_error = [](const std::string& text, std::size_t line) {
    const auto parsed = io::read_trace(text);
    ASSERT_TRUE(std::holds_alternative<io::TraceParseError>(parsed)) << text;
    EXPECT_EQ(std::get<io::TraceParseError>(parsed).line, line) << text;
  };
  expect_error("", 0);                             // no header at all
  expect_error("{\"type\":\"other\"}", 1);         // wrong header type
  expect_error("not json", 1);                     // malformed first line
  const std::string header =
      io::write_trace({workload::high_level_profile(), {}, {}});
  expect_error(header + "{\"t\":0}", 2);           // event missing fields
  expect_error(header + "{\"t\":0,\"ev\":\"warp\",\"tenant\":1}", 2);
  expect_error(
      header + "{\"t\":0,\"ev\":\"arrive\",\"tenant\":1,\"seed\":7}",
      2);  // numeric seed rejected: must be a string
}

TEST(Trace, FileRoundTrip) {
  const auto trace = sample_trace();
  const auto path =
      std::filesystem::temp_directory_path() / "hmn_trace_test.jsonl";
  ASSERT_TRUE(io::save_trace(path, trace));
  const auto loaded = io::load_trace(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->events, trace.events);
}

TEST(Trace, LoadRejectsMissingFile) {
  EXPECT_FALSE(io::load_trace("/nonexistent/hmn_trace.jsonl").has_value());
}

}  // namespace
