// The benchmark's three trace-replay workloads.  Each is a closed loop with
// one caller: the next event is sent when the previous call returns.  A
// run generates its traces from the seed, then replays each in a number of
// passes set by the requested seconds, each on a freshly built system.  A
// pass is set-up (build the system, replay the warm-up prefix to steady
// occupancy) followed by the timed phase (the rest of the trace).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t { kChurn, kFailstorm, kSharded };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w);

struct RunOptions {
  Workload workload = Workload::kChurn;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans; empty writes none.
  std::filesystem::path span_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  // events handled plus recovery probes
  std::uint64_t failed = 0;     // exceptions, violations, divergences
  std::vector<std::string> failures;  // one line per failure kind
  std::vector<Metric> end_to_end;     // measured untraced
  std::vector<Metric> per_layer;      // filled by a traced run only
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Runs one workload.  Progress, sample counts and check outcomes are
/// printed to stdout as they happen.
[[nodiscard]] RunResult run_workload(const RunOptions& opts);

}  // namespace perfbench
