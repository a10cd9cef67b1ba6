#include "io/spec.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/json_parser.h"

namespace hmn::io {
namespace {

std::variant<std::string, SpecError> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return SpecError{"cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Fetches a required numeric member or records an error.
bool require_number(const JsonValue& obj, const std::string& key, double& out,
                    std::string& error, const std::string& context) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    error = context + ": missing numeric field \"" + key + "\"";
    return false;
  }
  out = v->as_number();
  return true;
}

/// Fetches a required member that must be a finite number >= 0: a link's
/// bandwidth or latency, a host's memory or storage, a guest's memory or
/// storage demand.  A negative latency on an undirected link would make the
/// router's latency Dijkstra relax that link back and forth forever; a
/// negative demand would free room on its host for the other guests, and a
/// negative capacity has no meaning under Eqs. 2-3.  CPU stays unchecked:
/// residual CPU may go negative (Section 3.2).
bool require_nonnegative(const JsonValue& obj, const std::string& key,
                         double& out, std::string& error,
                         const std::string& context) {
  if (!require_number(obj, key, out, error, context)) return false;
  if (!std::isfinite(out) || out < 0.0) {
    error = context + ": \"" + key + "\" must be a finite number >= 0";
    return false;
  }
  return true;
}

/// Fetches a required member holding an id below `limit` (a node or guest
/// count), read with json_u32: a fraction, a negative or a value beyond
/// 2^32 is refused before any cast.
bool require_id(const JsonValue& obj, const std::string& key,
                std::size_t limit, std::uint32_t& out, std::string& error,
                const std::string& context) {
  const JsonValue* v = obj.find(key);
  const std::optional<std::uint32_t> id =
      v == nullptr ? std::nullopt : json_u32(*v);
  if (!id) {
    error = context + ": \"" + key + "\" must be a whole-number id";
    return false;
  }
  if (*id >= limit) {
    error = context + ": endpoint out of range";
    return false;
  }
  out = *id;
  return true;
}

}  // namespace

std::variant<model::PhysicalCluster, SpecError> load_cluster_json(
    std::string_view text) {
  auto parsed = parse_json(text);
  if (auto* err = std::get_if<JsonParseError>(&parsed)) {
    return SpecError{"JSON error at offset " + std::to_string(err->offset) +
                     ": " + err->message};
  }
  const JsonValue& root = std::get<JsonValue>(parsed);
  const JsonValue* nodes = root.find("nodes");
  const JsonValue* links = root.find("links");
  if (nodes == nullptr || !nodes->is_array()) {
    return SpecError{"cluster spec: missing \"nodes\" array"};
  }
  if (links == nullptr || !links->is_array()) {
    return SpecError{"cluster spec: missing \"links\" array"};
  }

  topology::Topology topo;
  topo.graph = graph::Graph(nodes->as_array().size());
  std::vector<model::HostCapacity> caps;
  std::string error;
  for (std::size_t i = 0; i < nodes->as_array().size(); ++i) {
    const JsonValue& node = nodes->as_array()[i];
    const std::string context = "node " + std::to_string(i);
    if (!node.is_object()) return SpecError{context + ": not an object"};
    const JsonValue* role = node.find("role");
    const bool is_host =
        role == nullptr || !role->is_string() || role->as_string() == "host";
    if (role != nullptr && role->is_string() && role->as_string() != "host" &&
        role->as_string() != "switch") {
      return SpecError{context + ": role must be \"host\" or \"switch\""};
    }
    if (const JsonValue* id = node.find("id");
        id != nullptr && json_u32(*id) != i) {
      return SpecError{context + ": ids must be dense and in order"};
    }
    topo.role.push_back(is_host ? topology::NodeRole::kHost
                                : topology::NodeRole::kSwitch);
    if (is_host) {
      model::HostCapacity cap;
      if (!require_number(node, "proc_mips", cap.proc_mips, error, context) ||
          !require_nonnegative(node, "mem_mb", cap.mem_mb, error, context) ||
          !require_nonnegative(node, "stor_gb", cap.stor_gb, error,
                               context)) {
        return SpecError{error};
      }
      caps.push_back(cap);
    }
  }

  std::vector<model::LinkProps> props;
  for (std::size_t i = 0; i < links->as_array().size(); ++i) {
    const JsonValue& link = links->as_array()[i];
    const std::string context = "link " + std::to_string(i);
    if (!link.is_object()) return SpecError{context + ": not an object"};
    std::uint32_t a = 0, b = 0;
    model::LinkProps p;
    if (!require_id(link, "a", topo.graph.node_count(), a, error, context) ||
        !require_id(link, "b", topo.graph.node_count(), b, error, context) ||
        !require_nonnegative(link, "bw_mbps", p.bandwidth_mbps, error,
                             context) ||
        !require_nonnegative(link, "lat_ms", p.latency_ms, error, context)) {
      return SpecError{error};
    }
    topo.graph.add_edge(NodeId{a}, NodeId{b});
    props.push_back(p);
  }

  try {
    return model::PhysicalCluster::build(std::move(topo), std::move(caps),
                                         std::move(props));
  } catch (const std::exception& e) {
    return SpecError{std::string("cluster spec: ") + e.what()};
  }
}

std::variant<model::VirtualEnvironment, SpecError> load_venv_json(
    std::string_view text) {
  auto parsed = parse_json(text);
  if (auto* err = std::get_if<JsonParseError>(&parsed)) {
    return SpecError{"JSON error at offset " + std::to_string(err->offset) +
                     ": " + err->message};
  }
  const JsonValue& root = std::get<JsonValue>(parsed);
  const JsonValue* guests = root.find("guests");
  const JsonValue* links = root.find("links");
  if (guests == nullptr || !guests->is_array()) {
    return SpecError{"venv spec: missing \"guests\" array"};
  }
  if (links == nullptr || !links->is_array()) {
    return SpecError{"venv spec: missing \"links\" array"};
  }

  model::VirtualEnvironment venv;
  std::string error;
  for (std::size_t i = 0; i < guests->as_array().size(); ++i) {
    const JsonValue& guest = guests->as_array()[i];
    const std::string context = "guest " + std::to_string(i);
    if (!guest.is_object()) return SpecError{context + ": not an object"};
    model::GuestRequirements req;
    if (!require_number(guest, "vproc_mips", req.proc_mips, error, context) ||
        !require_nonnegative(guest, "vmem_mb", req.mem_mb, error, context) ||
        !require_nonnegative(guest, "vstor_gb", req.stor_gb, error,
                             context)) {
      return SpecError{error};
    }
    venv.add_guest(req);
  }
  for (std::size_t i = 0; i < links->as_array().size(); ++i) {
    const JsonValue& link = links->as_array()[i];
    const std::string context = "virtual link " + std::to_string(i);
    if (!link.is_object()) return SpecError{context + ": not an object"};
    std::uint32_t src = 0, dst = 0;
    model::VirtualLinkDemand demand;
    if (!require_id(link, "src", venv.guest_count(), src, error, context) ||
        !require_id(link, "dst", venv.guest_count(), dst, error, context) ||
        !require_nonnegative(link, "vbw_mbps", demand.bandwidth_mbps, error,
                             context) ||
        !require_nonnegative(link, "vlat_ms", demand.max_latency_ms, error,
                             context)) {
      return SpecError{error};
    }
    venv.add_link(GuestId{src}, GuestId{dst}, demand);
  }
  return venv;
}

std::variant<core::Mapping, SpecError> load_mapping_json(
    std::string_view text) {
  auto parsed = parse_json(text);
  if (auto* err = std::get_if<JsonParseError>(&parsed)) {
    return SpecError{"JSON error at offset " + std::to_string(err->offset) +
                     ": " + err->message};
  }
  const JsonValue* root = &std::get<JsonValue>(parsed);
  // Accept a wrapped MapOutcome document.
  if (const JsonValue* inner = root->find("mapping"); inner != nullptr) {
    root = inner;
  }
  const JsonValue* hosts = root->find("guest_host");
  const JsonValue* paths = root->find("link_paths");
  if (hosts == nullptr || !hosts->is_array()) {
    return SpecError{"mapping spec: missing \"guest_host\" array"};
  }
  if (paths == nullptr || !paths->is_array()) {
    return SpecError{"mapping spec: missing \"link_paths\" array"};
  }
  core::Mapping mapping;
  for (std::size_t g = 0; g < hosts->as_array().size(); ++g) {
    const std::optional<std::uint32_t> host = json_u32(hosts->as_array()[g]);
    if (!host) {
      return SpecError{"mapping spec: guest_host[" + std::to_string(g) +
                       "] must be a whole-number node id"};
    }
    mapping.guest_host.push_back(NodeId{*host});
  }
  for (std::size_t l = 0; l < paths->as_array().size(); ++l) {
    const JsonValue& path = paths->as_array()[l];
    if (!path.is_array()) {
      return SpecError{"mapping spec: link_paths[" + std::to_string(l) +
                       "] must be an array of edge ids"};
    }
    graph::Path edges;
    for (const JsonValue& e : path.as_array()) {
      const std::optional<std::uint32_t> edge = json_u32(e);
      if (!edge) {
        return SpecError{"mapping spec: link_paths[" + std::to_string(l) +
                         "] contains a non-id entry"};
      }
      edges.push_back(EdgeId{*edge});
    }
    mapping.link_paths.push_back(std::move(edges));
  }
  return mapping;
}

std::variant<core::Mapping, SpecError> load_mapping_file(
    const std::string& path) {
  auto text = slurp(path);
  if (auto* err = std::get_if<SpecError>(&text)) return *err;
  return load_mapping_json(std::get<std::string>(text));
}

std::variant<model::PhysicalCluster, SpecError> load_cluster_file(
    const std::string& path) {
  auto text = slurp(path);
  if (auto* err = std::get_if<SpecError>(&text)) return *err;
  return load_cluster_json(std::get<std::string>(text));
}

std::variant<model::VirtualEnvironment, SpecError> load_venv_file(
    const std::string& path) {
  auto text = slurp(path);
  if (auto* err = std::get_if<SpecError>(&text)) return *err;
  return load_venv_json(std::get<std::string>(text));
}

}  // namespace hmn::io
