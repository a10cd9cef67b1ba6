#include "availability/availability_tracker.h"

#include <algorithm>
#include <cmath>

namespace hmn::availability {

ClassTracker::ClassTracker(std::size_t count, AvailabilityOptions opts)
    : state_(count), opts_(opts) {}

void ClassTracker::fold_interval(ElementState& st, double now, bool was_up) {
  const double dt = std::max(0.0, now - st.since);
  // α = 1 − exp(−Δt/τ): a long interval dominates, a flap barely counts.
  const double alpha = 1.0 - std::exp(-dt / std::max(1e-12, opts_.tau));
  const double x = was_up ? 1.0 : 0.0;
  st.avail = (1.0 - alpha) * st.avail + alpha * x;
  st.avail = std::clamp(st.avail, opts_.floor, 1.0);
  st.since = now;
}

void ClassTracker::on_fail(std::uint32_t element, double now) {
  if (element >= state_.size()) return;
  ElementState& st = state_[element];
  if (st.down) return;  // duplicate fail (overlapping groups): no-op
  fold_interval(st, now, /*was_up=*/true);
  st.down = true;
  st.ever_failed = true;
}

void ClassTracker::on_recover(std::uint32_t element, double now) {
  if (element >= state_.size()) return;
  ElementState& st = state_[element];
  if (!st.down) return;  // spurious recover: no-op
  fold_interval(st, now, /*was_up=*/false);
  st.down = false;
}

double ClassTracker::availability(std::uint32_t element) const {
  if (element >= state_.size()) return 1.0;
  const ElementState& st = state_[element];
  if (!st.ever_failed) return 1.0;  // the invisibility invariant
  // A currently-down element is as unreliable as the floor allows; an up
  // element reports its folded history.
  if (st.down) return opts_.floor;
  return st.avail;
}

bool ClassTracker::is_down(std::uint32_t element) const {
  return element < state_.size() && state_[element].down;
}

std::vector<ElementSnapshot> ClassTracker::snapshot() const {
  std::vector<ElementSnapshot> out;
  out.reserve(state_.size());
  for (const ElementState& st : state_) {
    out.push_back({st.avail, st.since, st.down, st.ever_failed});
  }
  return out;
}

void ClassTracker::restore(const std::vector<ElementSnapshot>& states) {
  if (states.size() != state_.size()) return;  // size mismatch: refuse
  for (std::size_t i = 0; i < states.size(); ++i) {
    state_[i].avail = states[i].avail;
    state_[i].since = states[i].since;
    state_[i].down = states[i].down;
    state_[i].ever_failed = states[i].ever_failed;
  }
}

AvailabilityTracker::AvailabilityTracker(std::size_t node_count,
                                         std::size_t link_count,
                                         AvailabilityOptions opts)
    : nodes_(node_count, opts), links_(link_count, opts) {}

void AvailabilityTracker::on_node_fail(std::uint32_t node, double now) {
  nodes_.on_fail(node, now);
  has_history_ = true;
}

void AvailabilityTracker::on_node_recover(std::uint32_t node, double now) {
  nodes_.on_recover(node, now);
}

void AvailabilityTracker::on_link_fail(std::uint32_t link, double now) {
  links_.on_fail(link, now);
  has_history_ = true;
}

void AvailabilityTracker::on_link_recover(std::uint32_t link, double now) {
  links_.on_recover(link, now);
}

std::vector<double> AvailabilityTracker::node_weights() const {
  std::vector<double> w(nodes_.size(), 1.0);
  if (!has_history_) return w;
  for (std::size_t n = 0; n < w.size(); ++n) {
    w[n] = nodes_.availability(static_cast<std::uint32_t>(n));
  }
  return w;
}

}  // namespace hmn::availability
