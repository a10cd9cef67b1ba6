#include "host_probe.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <utility>

#include "spans.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 4000;
constexpr std::uint32_t kDegree = 6;
constexpr std::uint32_t kSources = 18;
constexpr std::size_t kMapOps = 120000;
constexpr std::uint32_t kKeySpace = 60000;
constexpr std::size_t kSortValues = 20000;
constexpr std::size_t kSorts = 24;

}  // namespace

HostProbe::HostProbe() {
  std::mt19937_64 rng(7);  // fixed: the probe is the same work everywhere
  offsets_.push_back(0);
  for (std::uint32_t v = 0; v < kNodes; ++v) {
    for (std::uint32_t k = 0; k < kDegree; ++k) {
      targets_.push_back(static_cast<std::uint32_t>(rng() % kNodes));
      weights_.push_back(1.0 + static_cast<double>(rng() % 1000) * 0.01);
    }
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
  for (std::size_t i = 0; i < kMapOps; ++i) {
    keys_.push_back(static_cast<std::uint32_t>(rng() % kKeySpace));
  }
  for (std::size_t i = 0; i < kSortValues; ++i) {
    values_.push_back(static_cast<double>(rng() % 100000) * 0.37);
  }
}

double HostProbe::seconds() {
  const std::int64_t start = now_ns();
  using Entry = std::pair<double, std::uint32_t>;
  std::vector<double> dist(kNodes);
  for (std::uint32_t s = 0; s < kSources; ++s) {
    std::fill(dist.begin(), dist.end(), 1e300);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    const std::uint32_t source = (s * 997) % kNodes;
    dist[source] = 0.0;
    queue.push({0.0, source});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      for (std::uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const double nd = d + weights_[e];
        if (nd < dist[targets_[e]]) {
          dist[targets_[e]] = nd;
          queue.push({nd, targets_[e]});
        }
      }
    }
    sink_ += dist[kNodes / 2];
  }
  std::map<std::uint32_t, double> map;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const auto it = map.find(keys_[i]);
    if (it == map.end()) {
      map.emplace(keys_[i], static_cast<double>(i));
    } else {
      sink_ += it->second;
      map.erase(it);
    }
  }
  for (std::size_t r = 0; r < kSorts; ++r) {
    std::vector<double> v(values_);
    std::sort(v.begin(), v.end());
    sink_ += v[r * 100];
  }
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace perfbench
