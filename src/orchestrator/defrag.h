// Background defragmentation of a multi-tenant cluster.
//
// Tenant departures carve random holes into the placement; over time the
// cluster drifts toward a state where aggregate capacity is plentiful but
// no single host can take the next tenant's largest guest (classic bin
// fragmentation), and physical links carry detours routed around
// since-departed traffic.  A defrag pass treats the *aggregate* placement
// — every guest of every tenant — as one environment and
//
//   1. runs the paper's Migration stage (core::run_migration) on it,
//      reducing the cluster-wide load-balance factor (Eq. 10) subject to
//      memory/storage fits, and
//   2. re-routes every inter-host virtual link from scratch in descending
//      bandwidth order (the Networking stage's global order, which a
//      sequence of independent per-tenant admissions cannot achieve).
//
// The pass is transactional: the new placement is committed through
// TenancyManager::update_mappings only when every link routes; otherwise
// nothing changes.  Schaffrath et al. (PAPERS.md) show migration-aware
// re-embedding is the lever for efficiency under churn — this is that
// lever built from the paper's own stages.
#pragma once

#include <cstddef>
#include <string>

#include "emulator/tenancy.h"

namespace hmn::orchestrator {

struct DefragResult {
  bool committed = false;
  std::size_t migrations = 0;       // guests moved by the Migration stage
  std::size_t links_rerouted = 0;   // inter-host links routed afresh
  double lbf_before = 0.0;          // Eq. 10 over all hosts, pre-pass
  double lbf_after = 0.0;           // post-pass (== before when !committed)
  std::string detail;               // why the pass did not commit
  /// Wall clock of the Migration stage (step 1) and of the global re-route
  /// (step 2).  Timings only: no decision reads them.
  double migration_seconds = 0.0;
  double reroute_seconds = 0.0;
};

/// Runs one defragmentation pass over every tenant of `mgr`.  Running
/// tenants are never *lost*: on any infeasibility the pass aborts and the
/// manager is untouched.  Migration runs the kBestImprovement victim
/// policy with no cap on moves.  The re-route works on the Migration
/// stage's own residual state: the aggregate placement carries no paths,
/// so every link's residual bandwidth there is its capacity, and Migration
/// changes only CPU, memory and storage, which routing never reads.  It
/// borrows mgr.latency_tables(): it routes on mgr.cluster() with no
/// dead-edge mask, which is exactly what those tables describe.  The
/// routed paths are moved into the committed mappings, not copied.
[[nodiscard]] DefragResult run_defrag(emulator::TenancyManager& mgr);

}  // namespace hmn::orchestrator
