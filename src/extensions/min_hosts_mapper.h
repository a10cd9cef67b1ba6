// Consolidating mapper — an HMN variant for the paper's Section 6
// alternative objective: use as few hosts as possible (e.g. so the rest of
// the cluster stays free for other testers), while still respecting every
// constraint of Section 3.2.
//
// Placement is first-fit-decreasing bin packing: guests sorted by
// descending memory footprint go to the first already-open host that fits
// (hosts opened in descending capacity order, so the big bins fill first).
// Link affinity still matters for feasibility — after packing, the standard
// Networking stage (modified A*Prune) routes the virtual links.
#pragma once

#include "core/mapper.h"

namespace hmn::extensions {

class MinHostsMapper final : public core::Mapper {
 public:
  [[nodiscard]] std::string name() const override { return "MinHosts"; }
  [[nodiscard]] core::MapOutcome map(const model::PhysicalCluster& cluster,
                                     const model::VirtualEnvironment& venv,
                                     std::uint64_t seed) const override;
};

}  // namespace hmn::extensions
