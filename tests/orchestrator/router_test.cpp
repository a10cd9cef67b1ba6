// Tests for the sharded placement router: admission/release lifecycle,
// power-of-two-choices fallback, duplicate-key rejection, and — the
// property the whole design hangs on — byte-identical decision logs for
// threads=1 vs threads=N at the same seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/map_result.h"
#include "model/physical_cluster.h"
#include "orchestrator/router.h"
#include "testing/fixtures.h"
#include "topology/topologies.h"
#include "util/rng.h"

namespace {

using namespace hmn;
using orchestrator::AdmissionRequest;
using orchestrator::PlacementRouter;
using orchestrator::RouterDecision;
using orchestrator::RouterOptions;

model::PhysicalCluster tree_fabric(std::size_t hosts) {
  return model::PhysicalCluster::build(
      topology::switch_tree(hosts, 8, 4),
      std::vector<model::HostCapacity>(hosts, {1000, 4096, 4096}),
      model::LinkProps{1000.0, 5.0});
}

AdmissionRequest request(std::uint32_t key, std::size_t guests,
                         std::uint64_t seed) {
  AdmissionRequest req;
  req.key = key;
  req.venv = test::chain_venv(guests);
  req.seed = seed;
  return req;
}

TEST(PlacementRouterTest, AdmitReleaseLifecycle) {
  RouterOptions opts;
  opts.shards = 4;
  PlacementRouter router(tree_fabric(32), opts);
  ASSERT_GE(router.shard_count(), 2u);

  std::vector<std::uint32_t> admitted;
  for (std::uint32_t key = 1; key <= 6; ++key) {
    const RouterDecision d = router.admit(request(key, 3, 100 + key), key);
    ASSERT_TRUE(d.admitted) << "key " << key;
    EXPECT_EQ(d.key, key);
    EXPECT_GE(d.shard, 0);
    EXPECT_LT(static_cast<std::size_t>(d.shard), router.shard_count());
    EXPECT_GE(d.attempts, 1u);
    EXPECT_NE(d.placement_hash, 0u);
    admitted.push_back(key);
  }
  EXPECT_EQ(router.tenant_count(), admitted.size());
  EXPECT_EQ(router.decision_log().size(), admitted.size());
  EXPECT_EQ(router.latency_histogram().count(), admitted.size());

  for (const std::uint32_t key : admitted) {
    EXPECT_TRUE(router.release(key));
  }
  EXPECT_EQ(router.tenant_count(), 0u);
  EXPECT_FALSE(router.release(999));  // unknown key
}

TEST(PlacementRouterTest, HeadroomTracksAdmissions) {
  RouterOptions opts;
  opts.shards = 4;
  PlacementRouter router(tree_fabric(32), opts);
  std::vector<double> before(router.shard_count());
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    before[s] = router.headroom(s);
  }

  const RouterDecision d = router.admit(request(1, 4, 7), 7);
  ASSERT_TRUE(d.admitted);
  const auto shard = static_cast<std::size_t>(d.shard);
  EXPECT_LT(router.headroom(shard), before[shard]);

  ASSERT_TRUE(router.release(1));
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    EXPECT_DOUBLE_EQ(router.headroom(s), before[s]);
  }
}

TEST(PlacementRouterTest, DuplicateKeysRejectedAsInvalidInput) {
  RouterOptions opts;
  opts.shards = 2;
  PlacementRouter router(tree_fabric(16), opts);

  ASSERT_TRUE(router.admit(request(5, 2, 1), 1).admitted);
  // Same key again, while the first is live.
  const RouterDecision dup = router.admit(request(5, 2, 2), 2);
  EXPECT_FALSE(dup.admitted);
  EXPECT_EQ(dup.error, core::MapErrorCode::kInvalidInput);

  // Duplicate inside one batch: the first instance wins, later ones are
  // rejected without touching any shard.
  std::vector<AdmissionRequest> batch{request(7, 2, 3), request(7, 2, 4)};
  const auto decisions = router.admit_batch(batch, 3);
  EXPECT_TRUE(decisions[0].admitted);
  EXPECT_FALSE(decisions[1].admitted);
  EXPECT_EQ(decisions[1].error, core::MapErrorCode::kInvalidInput);
  EXPECT_EQ(decisions[1].attempts, 0u);

  // After release the key is reusable.
  ASSERT_TRUE(router.release(5));
  EXPECT_TRUE(router.admit(request(5, 2, 5), 5).admitted);
}

TEST(PlacementRouterTest, FallsBackThroughShardsUntilFullThenRejects) {
  // One guest per host (memory-saturating), so every shard has a hard
  // admission count; once the fabric is full the router must have walked
  // every shard before rejecting.
  RouterOptions opts;
  opts.shards = 4;
  PlacementRouter router(tree_fabric(16), opts);

  model::GuestRequirements big{75, 4096, 150};
  std::uint32_t key = 1;
  std::size_t admitted = 0;
  for (; key <= 32; ++key) {
    AdmissionRequest req;
    req.key = key;
    req.venv.add_guest(big);
    req.seed = key;
    const RouterDecision d = router.admit(std::move(req), 1000 + key);
    if (!d.admitted) break;
    ++admitted;
  }
  EXPECT_EQ(admitted, 16u);  // exactly one guest per host fits

  AdmissionRequest overflow;
  overflow.key = 900;
  overflow.venv.add_guest(big);
  overflow.seed = 900;
  const RouterDecision rejected = router.admit(std::move(overflow), 900);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.shard, -1);
  // Exhaustive fallback: every shard was tried before giving up.
  EXPECT_EQ(rejected.attempts, router.shard_count());
  EXPECT_NE(rejected.error, core::MapErrorCode::kNone);
}

TEST(PlacementRouterTest, FallsBackWhenHeadroomWinnerCannotFit) {
  // Two single-host shards.  Host 0 has far more CPU (the P2C score) but
  // too little memory for the request, so the score-preferred probe must
  // fail and the router must fall back to shard 1 on the second attempt.
  std::vector<model::HostCapacity> caps{{10000, 4096, 4096},
                                        {1000, 8192, 4096}};
  const auto fabric = model::PhysicalCluster::build(
      topology::line(2), std::move(caps), model::LinkProps{1000.0, 5.0});

  RouterOptions opts;
  opts.shards = 2;
  PlacementRouter router(fabric, opts);
  ASSERT_EQ(router.shard_count(), 2u);
  ASSERT_GT(router.headroom(0), router.headroom(1));

  AdmissionRequest req;
  req.key = 1;
  req.venv.add_guest({10, 6000, 150});  // fits host 1's memory only
  req.seed = 3;
  const RouterDecision d = router.admit(std::move(req), 3);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.shard, 1);
  EXPECT_EQ(d.attempts, 2u);
}

/// The ISSUE's regression gate: identical decision logs (and so identical
/// placement_hash sequences) for threads=1 vs threads=N at the same seed,
/// across multiple batches with interleaved releases.
TEST(PlacementRouterTest, DecisionLogIdenticalAcrossThreadCounts) {
  const auto fabric = tree_fabric(64);

  auto run = [&](std::size_t threads) {
    RouterOptions opts;
    opts.shards = 8;
    opts.threads = threads;
    PlacementRouter router(fabric, opts);
    std::uint32_t key = 0;
    for (std::uint64_t batch_no = 0; batch_no < 4; ++batch_no) {
      std::vector<AdmissionRequest> batch;
      for (std::size_t i = 0; i < 12; ++i) {
        batch.push_back(
            request(++key, 2 + i % 4, util::derive_seed(42, batch_no, i)));
      }
      router.admit_batch(batch, util::derive_seed(42, batch_no));
      // Departures between batches shift headroom identically in both runs.
      router.release(key - 3);
      router.release(key - 7);
    }
    return router.decision_signature();
  };

  const std::string serial = run(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run(2));  // the caller and one pool worker
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(16));
}

TEST(PlacementRouterTest, SingleShardDegeneratesToFlatAdmission) {
  RouterOptions opts;
  opts.shards = 1;
  PlacementRouter router(tree_fabric(16), opts);
  ASSERT_EQ(router.shard_count(), 1u);
  const RouterDecision d = router.admit(request(1, 4, 11), 11);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.shard, 0);
  EXPECT_EQ(d.attempts, 1u);
  // The single shard is the whole fabric.
  EXPECT_EQ(router.shard(0).cluster.host_count(), 16u);
}

}  // namespace
