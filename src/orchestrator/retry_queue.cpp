#include "orchestrator/retry_queue.h"

#include <algorithm>

namespace hmn::orchestrator {

bool RetryQueue::push(PendingTenant tenant) {
  if (full()) return false;
  entries_.push_back(std::move(tenant));
  return true;
}

std::optional<PendingTenant> RetryQueue::erase(std::uint32_t key) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [key](const PendingTenant& t) { return t.key == key; });
  if (it == entries_.end()) return std::nullopt;
  PendingTenant out = std::move(*it);
  entries_.erase(it);
  return out;
}

bool RetryQueue::contains(std::uint32_t key) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [key](const PendingTenant& t) { return t.key == key; });
}

std::vector<PendingTenant> RetryQueue::export_entries() const {
  return {entries_.begin(), entries_.end()};
}

void RetryQueue::restore_entries(std::vector<PendingTenant> entries) {
  entries_.assign(std::make_move_iterator(entries.begin()),
                  std::make_move_iterator(entries.end()));
}

}  // namespace hmn::orchestrator
