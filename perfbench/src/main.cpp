// hmn benchmark: the command-line entry point.
//
//   perfbench --workload churn|failstorm|sharded --seed N --seconds S
//             --trace 0|1 [--span-dir DIR]
//
// Prints progress, sample counts and check outcomes, then every metric by
// name with its unit, and as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones of the traced run.  Exits 1
// when a correctness check failed, 2 on bad arguments.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "churn|failstorm|sharded --seed N --seconds S --trace 0|1 "
               "[--span-dir DIR]\n",
               why);
  return 2;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string_view value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return usage("unknown workload");
      opts.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) return usage("--seed takes an integer");
      opts.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 60) {
        return usage("--seconds takes an integer in [1, 60]");
      }
      opts.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--span-dir") {
      opts.span_dir = std::string(value);
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");

  const perfbench::RunResult res = perfbench::run_workload(opts);
  const auto& metrics = opts.trace ? res.per_layer : res.end_to_end;

  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const std::string& f : res.failures) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  std::printf("end-to-end metrics (untraced):\n");
  for (const auto& m : res.end_to_end) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opts.trace) {
    std::printf("per-layer metrics (traced):\n");
    for (const auto& m : res.per_layer) {
      std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  bool correct = res.correct() && !metrics.empty();
  std::string json = "{\"correct\": ";
  std::string body;
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max(res.attempted, res.failed));
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
