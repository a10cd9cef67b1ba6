// The paper's objective function (Eqs. 10-12): the load-balance factor,
// defined as the population standard deviation of residual CPU across
// hosts.  Lower is better; a perfectly balanced heterogeneous cluster has
// equal *residual* MIPS everywhere, not equal guest counts.
#pragma once

#include <span>
#include <vector>

#include "core/mapping.h"
#include "core/residual.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::core {

/// Eq. 10 over an explicit residual-CPU vector (one entry per host).
[[nodiscard]] double load_balance_factor(std::span<const double> rproc);

/// Eq. 10 for a residual state, over state.hosts().
[[nodiscard]] double load_balance_factor(const ResidualState& state);

/// Eq. 10 for a complete mapping: recomputes rproc(c_i) = proc(c_i) -
/// sum of vproc over G_i (Eq. 11) from scratch.
[[nodiscard]] double load_balance_factor(
    const model::PhysicalCluster& cluster,
    const model::VirtualEnvironment& venv, const Mapping& mapping);

/// Incremental what-if used by the Migration stage: the load-balance factor
/// if a guest consuming `vproc` moved from host index `from` to host index
/// `to` (indices into the rproc vector).  O(n) but allocation-free.
[[nodiscard]] double load_balance_factor_if_moved(
    std::span<const double> rproc, std::size_t from, std::size_t to,
    double vproc);

}  // namespace hmn::core
