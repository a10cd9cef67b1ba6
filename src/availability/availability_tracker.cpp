#include "availability/availability_tracker.h"

#include <algorithm>
#include <cmath>

namespace hmn::availability {
namespace {

void fold_interval(ElementSnapshot& st, double now, bool was_up) {
  const double dt = std::max(0.0, now - st.since);
  // α = 1 − exp(−Δt/τ): a long interval dominates, a flap barely counts.
  const double alpha = 1.0 - std::exp(-dt / kTau);
  const double x = was_up ? 1.0 : 0.0;
  st.avail = (1.0 - alpha) * st.avail + alpha * x;
  st.avail = std::clamp(st.avail, kFloor, 1.0);
  st.since = now;
}

}  // namespace

AvailabilityTracker::AvailabilityTracker(std::size_t node_count)
    : nodes_(node_count) {}

void AvailabilityTracker::on_node_fail(std::uint32_t node, double now) {
  has_history_ = true;
  if (node >= nodes_.size()) return;
  ElementSnapshot& st = nodes_[node];
  if (st.down) return;  // duplicate fail (overlapping groups): no-op
  fold_interval(st, now, /*was_up=*/true);
  st.down = true;
  st.ever_failed = true;
}

void AvailabilityTracker::on_node_recover(std::uint32_t node, double now) {
  if (node >= nodes_.size()) return;
  ElementSnapshot& st = nodes_[node];
  if (!st.down) return;  // spurious recover: no-op
  fold_interval(st, now, /*was_up=*/false);
  st.down = false;
}

std::vector<double> AvailabilityTracker::node_weights() const {
  std::vector<double> w(nodes_.size(), 1.0);
  for (std::size_t n = 0; n < w.size(); ++n) {
    const ElementSnapshot& st = nodes_[n];
    if (!st.ever_failed) continue;  // the invisibility invariant
    // A currently-down node is as unreliable as the floor allows; an up
    // node reports its folded history.
    w[n] = st.down ? kFloor : st.avail;
  }
  return w;
}

void AvailabilityTracker::restore(const Snapshot& snap) {
  if (snap.nodes.size() == nodes_.size()) nodes_ = snap.nodes;
  has_history_ = snap.has_history;
}

}  // namespace hmn::availability
