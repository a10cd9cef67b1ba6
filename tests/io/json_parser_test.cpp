// Tests for the JSON parser and the cluster/venv spec loaders, including
// round-trips through the writers.
#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "io/json.h"
#include "io/json_parser.h"
#include "io/spec.h"
#include "testing/fixtures.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using io::JsonParseError;
using io::JsonValue;
using io::parse_json;
using io::parse_json_or_throw;

JsonValue ok(std::string_view text) {
  auto result = parse_json(text);
  EXPECT_TRUE(std::holds_alternative<JsonValue>(result))
      << std::get<JsonParseError>(result).message;
  return std::get<JsonValue>(std::move(result));
}

std::string err(std::string_view text) {
  auto result = parse_json(text);
  EXPECT_TRUE(std::holds_alternative<JsonParseError>(result)) << text;
  return std::holds_alternative<JsonParseError>(result)
             ? std::get<JsonParseError>(result).message
             : std::string{};
}

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(ok("null").is_null());
  EXPECT_TRUE(ok("true").as_bool());
  EXPECT_FALSE(ok("false").as_bool());
  EXPECT_DOUBLE_EQ(ok("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(ok("-3.5e2").as_number(), -350.0);
  EXPECT_DOUBLE_EQ(ok("0.125").as_number(), 0.125);
  EXPECT_EQ(ok("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, WhitespaceTolerated) {
  const auto v = ok("  {\n\t\"a\" : [ 1 , 2 ] \r\n} ");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_array().size(), 2u);
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(ok(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(ok(R"("Aé中")").as_string(), "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonParser, NestedStructures) {
  const auto v = ok(R"({"a":{"b":[1,{"c":true}]},"d":null})");
  const JsonValue* b = v.find("a")->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(b->as_array()[1].find("c")->as_bool());
  EXPECT_TRUE(v.find("d")->is_null());
}

TEST(JsonParser, EmptyContainers) {
  EXPECT_TRUE(ok("[]").as_array().empty());
  EXPECT_TRUE(ok("{}").as_object().empty());
}

TEST(JsonParser, Errors) {
  EXPECT_FALSE(err("").empty());
  EXPECT_FALSE(err("{").empty());
  EXPECT_FALSE(err("[1,").empty());
  EXPECT_FALSE(err("[1 2]").empty());
  EXPECT_FALSE(err("{\"a\" 1}").empty());
  EXPECT_FALSE(err("\"unterminated").empty());
  EXPECT_FALSE(err("nul").empty());
  EXPECT_FALSE(err("1.2.3").empty());
  EXPECT_FALSE(err("{} trailing").empty());
  EXPECT_FALSE(err(R"("\q")").empty());
  EXPECT_FALSE(err(R"("\ud800")").empty());  // surrogate rejected
}

TEST(JsonParser, ErrorCarriesOffset) {
  auto result = parse_json("[1, x]");
  ASSERT_TRUE(std::holds_alternative<JsonParseError>(result));
  EXPECT_EQ(std::get<JsonParseError>(result).offset, 4u);
}

TEST(JsonParser, ThrowingWrapper) {
  EXPECT_NO_THROW(parse_json_or_throw("[1,2,3]"));
  EXPECT_THROW(parse_json_or_throw("{"), std::runtime_error);
}

TEST(JsonParser, DuplicateKeysLastWins) {
  const auto v = ok(R"({"a":1,"a":2})");
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 2.0);
}

TEST(JsonParser, NumberOrFallback) {
  const auto v = ok(R"({"a":5,"b":"x"})");
  EXPECT_DOUBLE_EQ(v.number_or("a", -1), 5.0);
  EXPECT_DOUBLE_EQ(v.number_or("b", -1), -1.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7), 7.0);
}

// ---- Spec loading and round-trips.

TEST(SpecLoader, ClusterRoundTrip) {
  const auto original =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 17);
  auto loaded_or = io::load_cluster_json(io::to_json(original));
  ASSERT_TRUE(std::holds_alternative<model::PhysicalCluster>(loaded_or))
      << std::get<io::SpecError>(loaded_or).message;
  const auto& loaded = std::get<model::PhysicalCluster>(loaded_or);
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.link_count(), original.link_count());
  ASSERT_EQ(loaded.host_count(), original.host_count());
  for (std::size_t i = 0; i < loaded.node_count(); ++i) {
    const auto node = NodeId{static_cast<NodeId::underlying_type>(i)};
    EXPECT_EQ(loaded.is_host(node), original.is_host(node));
    EXPECT_DOUBLE_EQ(loaded.capacity(node).proc_mips,
                     original.capacity(node).proc_mips);
    EXPECT_DOUBLE_EQ(loaded.capacity(node).mem_mb,
                     original.capacity(node).mem_mb);
  }
  for (std::size_t e = 0; e < loaded.link_count(); ++e) {
    const auto edge = EdgeId{static_cast<EdgeId::underlying_type>(e)};
    EXPECT_EQ(loaded.graph().endpoints(edge).a,
              original.graph().endpoints(edge).a);
    EXPECT_DOUBLE_EQ(loaded.link(edge).bandwidth_mbps,
                     original.link(edge).bandwidth_mbps);
    EXPECT_DOUBLE_EQ(loaded.link(edge).latency_ms,
                     original.link(edge).latency_ms);
  }
  // The reloaded cluster serializes identically.
  EXPECT_EQ(io::to_json(loaded), io::to_json(original));
}

TEST(SpecLoader, VenvRoundTrip) {
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kTorus2D, 18);
  const workload::Scenario sc{2.5, 0.02, workload::WorkloadKind::kHighLevel};
  const auto original = workload::make_scenario_venv(sc, cluster, 19);
  auto loaded_or = io::load_venv_json(io::to_json(original));
  ASSERT_TRUE(std::holds_alternative<model::VirtualEnvironment>(loaded_or))
      << std::get<io::SpecError>(loaded_or).message;
  const auto& loaded = std::get<model::VirtualEnvironment>(loaded_or);
  ASSERT_EQ(loaded.guest_count(), original.guest_count());
  ASSERT_EQ(loaded.link_count(), original.link_count());
  EXPECT_EQ(io::to_json(loaded), io::to_json(original));
}

TEST(SpecLoader, HandWrittenMinimalCluster) {
  const char* spec = R"({
    "nodes": [
      {"role": "host", "proc_mips": 1000, "mem_mb": 2048, "stor_gb": 512},
      {"role": "host", "proc_mips": 2000, "mem_mb": 4096, "stor_gb": 1024},
      {"role": "switch"}
    ],
    "links": [
      {"a": 0, "b": 2, "bw_mbps": 1000, "lat_ms": 5},
      {"a": 1, "b": 2, "bw_mbps": 1000, "lat_ms": 5}
    ]
  })";
  auto loaded_or = io::load_cluster_json(spec);
  ASSERT_TRUE(std::holds_alternative<model::PhysicalCluster>(loaded_or))
      << std::get<io::SpecError>(loaded_or).message;
  const auto& c = std::get<model::PhysicalCluster>(loaded_or);
  EXPECT_EQ(c.host_count(), 2u);
  EXPECT_FALSE(c.is_host(NodeId{2}));
}

TEST(SpecLoader, RejectsMalformedSpecs) {
  auto is_err = [](auto&& v) {
    return std::holds_alternative<io::SpecError>(v);
  };
  EXPECT_TRUE(is_err(io::load_cluster_json("not json")));
  EXPECT_TRUE(is_err(io::load_cluster_json("{}")));  // missing arrays
  EXPECT_TRUE(is_err(io::load_cluster_json(
      R"({"nodes":[{"role":"host"}],"links":[]})")));  // missing capacities
  EXPECT_TRUE(is_err(io::load_cluster_json(
      R"({"nodes":[{"role":"boat","proc_mips":1,"mem_mb":1,"stor_gb":1}],"links":[]})")));
  EXPECT_TRUE(is_err(io::load_cluster_json(
      R"({"nodes":[{"role":"host","proc_mips":1,"mem_mb":1,"stor_gb":1}],)"
      R"("links":[{"a":0,"b":5,"bw_mbps":1,"lat_ms":1}]})")));  // range
  EXPECT_TRUE(is_err(io::load_venv_json("{}")));
  EXPECT_TRUE(is_err(io::load_venv_json(
      R"({"guests":[{"vproc_mips":1,"vmem_mb":1,"vstor_gb":1}],)"
      R"("links":[{"src":0,"dst":3,"vbw_mbps":1,"vlat_ms":1}]})")));

  // Negative link values: a negative latency would make the router's
  // latency Dijkstra relax the link back and forth forever.  The error
  // names the field and the link.
  auto message = [](auto&& v) {
    const auto* err = std::get_if<io::SpecError>(&v);
    return err != nullptr ? err->message : std::string("accepted");
  };
  const std::string hosts =
      R"({"nodes":[{"proc_mips":1,"mem_mb":4096,"stor_gb":1},)"
      R"({"proc_mips":1,"mem_mb":4096,"stor_gb":1},)"
      R"({"proc_mips":1,"mem_mb":4096,"stor_gb":1}],"links":[)"
      R"({"a":0,"b":1,"bw_mbps":1000,"lat_ms":5},)"
      R"({"a":1,"b":2,"bw_mbps":1000,"lat_ms":5},)";
  EXPECT_EQ(message(io::load_cluster_json(
                hosts + R"({"a":2,"b":0,"bw_mbps":1000,"lat_ms":-5}]})")),
            "link 2: \"lat_ms\" must be a finite number >= 0");
  EXPECT_EQ(message(io::load_cluster_json(
                hosts + R"({"a":2,"b":0,"bw_mbps":-1,"lat_ms":5}]})")),
            "link 2: \"bw_mbps\" must be a finite number >= 0");
  const std::string guests =
      R"({"guests":[{"vproc_mips":1,"vmem_mb":1,"vstor_gb":1},)"
      R"({"vproc_mips":1,"vmem_mb":1,"vstor_gb":1}],"links":[)";
  EXPECT_EQ(message(io::load_venv_json(
                guests + R"({"src":0,"dst":1,"vbw_mbps":-2,"vlat_ms":9}]})")),
            "virtual link 0: \"vbw_mbps\" must be a finite number >= 0");
  EXPECT_EQ(message(io::load_venv_json(
                guests + R"({"src":0,"dst":1,"vbw_mbps":2,"vlat_ms":-9}]})")),
            "virtual link 0: \"vlat_ms\" must be a finite number >= 0");

  // Negative memory and storage: a negative demand would free room on its
  // host for the other guests (guests of -50 and 120 MB would share a
  // 100 MB host).  CPU stays unchecked, since residual CPU may go negative.
  EXPECT_EQ(message(io::load_venv_json(
                R"({"guests":[{"vproc_mips":1,"vmem_mb":-50,"vstor_gb":1},)"
                R"({"vproc_mips":1,"vmem_mb":120,"vstor_gb":1}],"links":[]})")),
            "guest 0: \"vmem_mb\" must be a finite number >= 0");
  EXPECT_EQ(message(io::load_venv_json(
                R"({"guests":[{"vproc_mips":1,"vmem_mb":1,"vstor_gb":1},)"
                R"({"vproc_mips":1,"vmem_mb":1,"vstor_gb":-1}],"links":[]})")),
            "guest 1: \"vstor_gb\" must be a finite number >= 0");
  EXPECT_EQ(message(io::load_cluster_json(
                R"({"nodes":[{"proc_mips":1,"mem_mb":-100,"stor_gb":1}],)"
                R"("links":[]})")),
            "node 0: \"mem_mb\" must be a finite number >= 0");
  EXPECT_EQ(message(io::load_cluster_json(
                R"({"nodes":[{"role":"switch"},)"
                R"({"proc_mips":1,"mem_mb":100,"stor_gb":-1}],"links":[]})")),
            "node 1: \"stor_gb\" must be a finite number >= 0");
  EXPECT_EQ(message(io::load_venv_json(
                R"({"guests":[{"vproc_mips":-5,"vmem_mb":0,"vstor_gb":0}],)"
                R"("links":[]})")),
            "accepted");
  EXPECT_EQ(message(io::load_cluster_json(
                R"({"nodes":[{"proc_mips":-5,"mem_mb":0,"stor_gb":0}],)"
                R"("links":[]})")),
            "accepted");
}

TEST(SpecLoader, IdsMustBeWholeNumbersBelow2To32) {
  // Every id field is read with io::json_u32: a fraction is refused, not
  // truncated to a valid id, and 1e300 or 2^32 is refused before a cast
  // that cannot represent it.  "0" is the control: the same document
  // loads.
  auto refused = [](auto&& v) {
    return std::holds_alternative<io::SpecError>(v);
  };
  const std::string host = R"({"proc_mips":1,"mem_mb":1,"stor_gb":1})";
  const std::string guest = R"({"vproc_mips":1,"vmem_mb":1,"vstor_gb":1})";
  for (const std::string id : {"0", "0.5", "1e300", "4294967296"}) {
    SCOPED_TRACE(id);
    const bool bad = id != "0";
    const std::string first_node =
        R"({"id":)" + id + R"(,"proc_mips":1,"mem_mb":1,"stor_gb":1})";
    EXPECT_EQ(refused(io::load_cluster_json(
                  R"({"nodes":[)" + first_node + "," + host +
                  R"(],"links":[]})")),
              bad);
    auto cluster = [&](const std::string& a, const std::string& b) {
      return R"({"nodes":[)" + host + "," + host + R"(],"links":[{"a":)" +
             a + R"(,"b":)" + b + R"(,"bw_mbps":1,"lat_ms":1}]})";
    };
    EXPECT_EQ(refused(io::load_cluster_json(cluster(id, "1"))), bad);
    EXPECT_EQ(refused(io::load_cluster_json(cluster("1", id))), bad);
    auto venv = [&](const std::string& src, const std::string& dst) {
      return R"({"guests":[)" + guest + "," + guest +
             R"(],"links":[{"src":)" + src + R"(,"dst":)" + dst +
             R"(,"vbw_mbps":1,"vlat_ms":1}]})";
    };
    EXPECT_EQ(refused(io::load_venv_json(venv(id, "1"))), bad);
    EXPECT_EQ(refused(io::load_venv_json(venv("1", id))), bad);
    EXPECT_EQ(refused(io::load_mapping_json(
                  R"({"guest_host":[)" + id + R"(],"link_paths":[]})")),
              bad);
    EXPECT_EQ(refused(io::load_mapping_json(
                  R"({"guest_host":[0],"link_paths":[[)" + id + "]]}")),
              bad);
  }
}

TEST(SpecLoader, MissingFileReported) {
  auto result = io::load_cluster_file("/nonexistent/path.json");
  ASSERT_TRUE(std::holds_alternative<io::SpecError>(result));
  EXPECT_NE(std::get<io::SpecError>(result).message.find("/nonexistent"),
            std::string::npos);
}

TEST(SpecLoader, OutOfOrderIdsRejected) {
  const char* spec = R"({
    "nodes": [{"id": 3, "role": "host", "proc_mips": 1, "mem_mb": 1,
               "stor_gb": 1}],
    "links": []
  })";
  EXPECT_TRUE(std::holds_alternative<io::SpecError>(
      io::load_cluster_json(spec)));
}

}  // namespace
