// Greedy node-ranking mapper — the classic virtual network embedding (VNE)
// baseline in the style of Yu et al. (SIGCOMM CCR 2008), adapted to the
// paper's problem model.
//
// Node stage: guests are ranked by resource demand (vproc x total incident
// vbw) and greedily assigned, heaviest first, to the host maximizing an
// availability rank: residual CPU x total residual bandwidth of the host's
// incident physical links.  Link stage: the modified A*Prune, as in HMN.
//
// Included because the problem this paper formalizes is an instance of
// VNE, and a downstream user comparing mapping strategies will expect the
// canonical greedy-rank baseline next to HMN (see DESIGN.md's novelty
// notes).  Bench E8 adds it to the extension comparison.
#pragma once

#include "core/mapper.h"

namespace hmn::extensions {

class GreedyRankMapper final : public core::Mapper {
 public:
  [[nodiscard]] std::string name() const override { return "GreedyRank"; }
  [[nodiscard]] core::MapOutcome map(const model::PhysicalCluster& cluster,
                                     const model::VirtualEnvironment& venv,
                                     std::uint64_t seed) const override;
};

}  // namespace hmn::extensions
