// Minimal JSON serialization of the library's domain objects, for piping
// experiment inputs/outputs into external tooling.  Writing only — the
// library has no need to parse JSON, and a writer is auditable in a page.
// Serializers for layer-3 record types (expfw::RunRecord timelines,
// emulator::PhaseRecord timelines) live with those types — expfw::to_json
// and emulator::to_json — so this module never includes upward.
#pragma once

#include <string>
#include <string_view>

#include "core/map_result.h"
#include "core/mapping.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::io {

/// `s` as a JSON string literal (RFC 8259 §7): `"`, `\` and newline are
/// written `\"`, `\\` and `\n`, every other byte below 0x20 `\u00XX`.
[[nodiscard]] std::string json_string(std::string_view s);
/// `v` printed with %.17g, which reads back as the same double.
[[nodiscard]] std::string json_number(double v);

[[nodiscard]] std::string to_json(const model::PhysicalCluster& cluster);
[[nodiscard]] std::string to_json(const model::VirtualEnvironment& venv);
[[nodiscard]] std::string to_json(const core::Mapping& mapping);
/// Full outcome including stats and error state.
[[nodiscard]] std::string to_json(const core::MapOutcome& outcome);

}  // namespace hmn::io
