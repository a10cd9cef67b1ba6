// Writer-parser consistency: everything the writers emit must parse with
// the library's own parser and carry the expected fields — the guarantee
// external tooling (and grid_tool's records.json consumers) rely on.
#include <gtest/gtest.h>

#include <chrono>

#include "expfw/report.h"
#include "core/hmn_mapper.h"
#include "emulator/session.h"
#include "expfw/runner.h"
#include "io/json.h"
#include "io/json_parser.h"
#include "testing/fixtures.h"
#include "util/timer.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using io::JsonValue;
using io::parse_json_or_throw;

TEST(JsonRoundTrip, RunRecordsParseWithExpectedFields) {
  const core::HmnMapper mapper;
  expfw::GridSpec spec;
  spec.scenarios = {{2.5, 0.02, workload::WorkloadKind::kHighLevel}};
  spec.clusters = {workload::ClusterKind::kSwitched};
  spec.repetitions = 2;
  const auto records = expfw::run_grid(spec, {&mapper});

  const JsonValue root = parse_json_or_throw(expfw::to_json(records));
  ASSERT_TRUE(root.is_array());
  ASSERT_EQ(root.as_array().size(), 2u);
  for (const JsonValue& rec : root.as_array()) {
    EXPECT_EQ(rec.find("mapper")->as_string(), "HMN");
    EXPECT_TRUE(rec.find("ok")->as_bool());
    EXPECT_GT(rec.number_or("objective", -1.0), 0.0);
    EXPECT_DOUBLE_EQ(rec.number_or("guests", 0.0), 100.0);
    EXPECT_GE(rec.number_or("map_seconds", -1.0), 0.0);
    EXPECT_EQ(rec.find("cluster")->as_string(), "Switched");
  }
}

TEST(JsonRoundTrip, MapOutcomeParses) {
  const auto cluster = test::line_cluster(3);
  auto venv = test::chain_venv(5);
  const auto out = core::HmnMapper().map(cluster, venv, 1);
  ASSERT_TRUE(out.ok());
  const JsonValue root = parse_json_or_throw(io::to_json(out));
  EXPECT_TRUE(root.find("ok")->as_bool());
  const JsonValue* mapping = root.find("mapping");
  ASSERT_NE(mapping, nullptr);
  EXPECT_EQ(mapping->find("guest_host")->as_array().size(), 5u);
  EXPECT_EQ(mapping->find("link_paths")->as_array().size(), 4u);
  const JsonValue* stats = root.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->number_or("total_s", -1.0), 0.0);
}

TEST(JsonRoundTrip, SessionTimelineParses) {
  emulator::EmulationSession session(test::line_cluster(3), {});
  const GuestId a = session.add_guest({75, 192, 150});
  const GuestId b = session.add_guest({75, 192, 150});
  session.add_link(a, b, {0.75, 45.0});
  ASSERT_TRUE(session.map());
  ASSERT_TRUE(session.deploy());
  ASSERT_TRUE(session.run());

  const JsonValue root = parse_json_or_throw(emulator::to_json(session.timeline()));
  ASSERT_TRUE(root.is_array());
  ASSERT_EQ(root.as_array().size(), 3u);
  EXPECT_EQ(root.as_array()[0].find("phase")->as_string(), "map");
  EXPECT_EQ(root.as_array()[1].find("phase")->as_string(), "deploy");
  EXPECT_GT(root.as_array()[1].number_or("simulated_seconds", -1.0), 0.0);
  EXPECT_EQ(root.as_array()[2].find("phase")->as_string(), "run");
}

TEST(JsonRoundTrip, ControlCharactersAreEscaped) {
  // RFC 8259 §7: no byte below 0x20 may appear raw inside a string.
  const std::string tricky = "a\tb\x01-c\nd";
  const std::vector<emulator::PhaseRecord> timeline{
      {"map", 0.5, 0.0, tricky}};
  const core::MapOutcome outcome =
      core::MapOutcome::failure(core::MapErrorCode::kInvalidInput, tricky);

  for (const std::string& json :
       {emulator::to_json(timeline), io::to_json(outcome)}) {
    for (const char ch : json) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << json;
    }
    const JsonValue root = parse_json_or_throw(json);
    const JsonValue& record = root.is_array() ? root.as_array()[0] : root;
    const JsonValue* text = record.find(root.is_array() ? "note" : "detail");
    ASSERT_NE(text, nullptr);
    EXPECT_EQ(text->as_string(), tricky);
  }
}

TEST(JsonRoundTrip, ClusterVenvMappingTripleConsistent) {
  // The full artifact set a tool exchange consists of: parse all three and
  // cross-check the shape relationships.
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 5);
  const workload::Scenario sc{2.5, 0.02, workload::WorkloadKind::kHighLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 6);
  const auto out = core::HmnMapper().map(cluster, venv, 7);
  ASSERT_TRUE(out.ok());

  const JsonValue jc = parse_json_or_throw(io::to_json(cluster));
  const JsonValue jv = parse_json_or_throw(io::to_json(venv));
  const JsonValue jm = parse_json_or_throw(io::to_json(*out.mapping));
  EXPECT_EQ(jc.find("nodes")->as_array().size(), cluster.node_count());
  EXPECT_EQ(jv.find("guests")->as_array().size(), venv.guest_count());
  EXPECT_EQ(jm.find("guest_host")->as_array().size(), venv.guest_count());
  EXPECT_EQ(jm.find("link_paths")->as_array().size(), venv.link_count());
  // Every guest_host entry indexes a host-role node.
  for (const JsonValue& h : jm.find("guest_host")->as_array()) {
    const auto idx = static_cast<std::size_t>(h.as_number());
    ASSERT_LT(idx, jc.find("nodes")->as_array().size());
    EXPECT_EQ(jc.find("nodes")->as_array()[idx].find("role")->as_string(),
              "host");
  }
}

TEST(TimerSanity, MonotoneAndRestartable) {
  util::Timer t;
  const double a = t.elapsed_seconds();
  const double b = t.elapsed_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
  t.restart();
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
  EXPECT_GE(t.elapsed_us(), 0.0);
}

}  // namespace
