#include "baselines/random_host_mapper.h"

namespace hmn::baselines {

std::optional<std::vector<NodeId>> random_placement(
    const model::VirtualEnvironment& venv, core::ResidualState& state,
    util::Rng& rng) {
  const auto& hosts = state.hosts();
  std::vector<NodeId> placement(venv.guest_count(), NodeId::invalid());

  std::vector<GuestId> order;
  order.reserve(venv.guest_count());
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    order.push_back(GuestId{static_cast<GuestId::underlying_type>(g)});
  }
  rng.shuffle(order.begin(), order.end());

  std::vector<NodeId> fitting;
  for (const GuestId g : order) {
    const auto& req = venv.guest(g);
    fitting.clear();
    for (const NodeId h : hosts) {
      if (state.fits(req, h)) fitting.push_back(h);
    }
    if (fitting.empty()) return std::nullopt;
    const NodeId h = fitting[rng.index(fitting.size())];
    state.place(req, h);
    placement[g.index()] = h;
  }
  return placement;
}

}  // namespace hmn::baselines
