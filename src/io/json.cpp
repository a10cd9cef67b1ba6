#include "io/json.h"

#include <cstdio>
#include <sstream>

namespace hmn::io {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string to_json(const model::PhysicalCluster& cluster) {
  std::ostringstream out;
  out << "{\"nodes\":[";
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const auto n = NodeId{static_cast<NodeId::underlying_type>(i)};
    if (i > 0) out << ',';
    out << "{\"id\":" << i << ",\"role\":"
        << (cluster.is_host(n) ? "\"host\"" : "\"switch\"");
    if (cluster.is_host(n)) {
      const auto& cap = cluster.capacity(n);
      out << ",\"proc_mips\":" << json_number(cap.proc_mips)
          << ",\"mem_mb\":" << json_number(cap.mem_mb)
          << ",\"stor_gb\":" << json_number(cap.stor_gb);
    }
    out << '}';
  }
  out << "],\"links\":[";
  for (std::size_t e = 0; e < cluster.link_count(); ++e) {
    const auto id = EdgeId{static_cast<EdgeId::underlying_type>(e)};
    const auto ep = cluster.graph().endpoints(id);
    if (e > 0) out << ',';
    out << "{\"a\":" << ep.a.value() << ",\"b\":" << ep.b.value()
        << ",\"bw_mbps\":" << json_number(cluster.link(id).bandwidth_mbps)
        << ",\"lat_ms\":" << json_number(cluster.link(id).latency_ms) << '}';
  }
  out << "]}";
  return out.str();
}

std::string to_json(const model::VirtualEnvironment& venv) {
  std::ostringstream out;
  out << "{\"guests\":[";
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const auto& req = venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
    if (g > 0) out << ',';
    out << "{\"id\":" << g << ",\"vproc_mips\":" << json_number(req.proc_mips)
        << ",\"vmem_mb\":" << json_number(req.mem_mb)
        << ",\"vstor_gb\":" << json_number(req.stor_gb) << '}';
  }
  out << "],\"links\":[";
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    const auto id = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
    const auto ep = venv.endpoints(id);
    if (l > 0) out << ',';
    out << "{\"src\":" << ep.src.value() << ",\"dst\":" << ep.dst.value()
        << ",\"vbw_mbps\":" << json_number(venv.link(id).bandwidth_mbps)
        << ",\"vlat_ms\":" << json_number(venv.link(id).max_latency_ms) << '}';
  }
  out << "]}";
  return out.str();
}

std::string to_json(const core::Mapping& mapping) {
  std::ostringstream out;
  out << "{\"guest_host\":[";
  for (std::size_t g = 0; g < mapping.guest_host.size(); ++g) {
    if (g > 0) out << ',';
    out << mapping.guest_host[g].value();
  }
  out << "],\"link_paths\":[";
  for (std::size_t l = 0; l < mapping.link_paths.size(); ++l) {
    if (l > 0) out << ',';
    out << '[';
    for (std::size_t e = 0; e < mapping.link_paths[l].size(); ++e) {
      if (e > 0) out << ',';
      out << mapping.link_paths[l][e].value();
    }
    out << ']';
  }
  out << "]}";
  return out.str();
}

std::string to_json(const core::MapOutcome& outcome) {
  std::ostringstream out;
  out << "{\"ok\":" << (outcome.ok() ? "true" : "false")
      << ",\"error\":" << json_string(core::to_string(outcome.error))
      << ",\"detail\":" << json_string(outcome.detail) << ",\"stats\":{"
      << "\"hosting_s\":" << json_number(outcome.stats.hosting_seconds)
      << ",\"migration_s\":" << json_number(outcome.stats.migration_seconds)
      << ",\"networking_s\":" << json_number(outcome.stats.networking_seconds)
      << ",\"total_s\":" << json_number(outcome.stats.total_seconds)
      << ",\"migrations\":" << outcome.stats.migrations
      << ",\"links_routed\":" << outcome.stats.links_routed
      << ",\"tries\":" << outcome.stats.tries << '}';
  if (outcome.ok()) out << ",\"mapping\":" << to_json(*outcome.mapping);
  out << '}';
  return out.str();
}

}  // namespace hmn::io
