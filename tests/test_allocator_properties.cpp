// Property-based invariant tests for disagg::RackAllocator: randomized
// alloc/free streams across both policies must never over-commit a pool,
// must restore state exactly on release, and must reject a double free
// without corrupting anything (the ISSUE 4 satellite).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "disagg/allocator.hpp"
#include "sim/rng.hpp"

namespace photorack::disagg {
namespace {

JobRequest random_request(sim::Rng& rng) {
  JobRequest req;
  req.cpus = static_cast<int>(rng.below(129));     // up to ~2 nodes of CPUs
  req.gpus = static_cast<int>(rng.below(17));      // up to 4 nodes of GPUs
  req.memory_gb = rng.uniform(0.0, 2048.0);        // up to 8 nodes of memory
  req.nic_gbps = rng.uniform(0.0, 3200.0);         // up to 4 nodes of NIC
  return req;
}

void expect_pools_within_capacity(const RackAllocator& alloc, int nodes) {
  const PoolState& pools = alloc.pools();
  EXPECT_GE(pools.cpus_used, 0);
  EXPECT_LE(pools.cpus_used, pools.cpus_total);
  EXPECT_GE(pools.gpus_used, 0);
  EXPECT_LE(pools.gpus_used, pools.gpus_total);
  EXPECT_GE(pools.memory_used, 0);
  EXPECT_LE(pools.memory_used, pools.memory_total);
  EXPECT_GE(pools.nic_used, 0);
  EXPECT_LE(pools.nic_used, pools.nic_total);
  EXPECT_GE(alloc.free_nodes(), 0);
  EXPECT_LE(alloc.free_nodes(), nodes);
  EXPECT_GE(alloc.marooned_cpu_fraction(), 0.0);
  EXPECT_LE(alloc.marooned_cpu_fraction(), 1.0);
  EXPECT_GE(alloc.marooned_memory_fraction(), 0.0);
  EXPECT_LE(alloc.marooned_memory_fraction(), 1.0);
}

void expect_pools_empty(const RackAllocator& alloc, int nodes) {
  EXPECT_EQ(alloc.pools().cpus_used, 0);
  EXPECT_EQ(alloc.pools().gpus_used, 0);
  EXPECT_EQ(alloc.pools().memory_used, 0);
  EXPECT_EQ(alloc.pools().nic_used, 0);
  EXPECT_EQ(alloc.free_nodes(), nodes);
  EXPECT_EQ(alloc.marooned_cpu_fraction(), 0.0);
  EXPECT_EQ(alloc.marooned_memory_fraction(), 0.0);
  EXPECT_EQ(alloc.live_allocations(), 0u);
}

class AllocatorProperties : public ::testing::TestWithParam<AllocationPolicy> {};

TEST_P(AllocatorProperties, RandomStreamNeverOvercommits) {
  const rack::RackConfig rack;
  RackAllocator alloc(rack, GetParam());
  sim::Rng rng(20260730);
  std::vector<Allocation> live;

  for (int op = 0; op < 4000; ++op) {
    if (live.empty() || rng.bernoulli(0.6)) {
      const Allocation a = alloc.allocate(random_request(rng));
      if (a.placed) live.push_back(a);
    } else {
      const std::size_t victim = rng.below(live.size());
      alloc.release(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    expect_pools_within_capacity(alloc, rack.nodes);
    ASSERT_EQ(alloc.live_allocations(), live.size()) << "op " << op;
  }
}

TEST_P(AllocatorProperties, ReleasingEverythingRestoresExactly) {
  const rack::RackConfig rack;
  RackAllocator alloc(rack, GetParam());
  sim::Rng rng(99);
  std::vector<Allocation> live;
  for (int i = 0; i < 500; ++i) {
    const Allocation a = alloc.allocate(random_request(rng));
    if (a.placed) live.push_back(a);
  }
  ASSERT_GT(live.size(), 0u);
  // Release in a shuffled order — exact restoration must not depend on
  // LIFO/FIFO discipline.
  while (!live.empty()) {
    const std::size_t victim = rng.below(live.size());
    alloc.release(live[victim]);
    live[victim] = live.back();
    live.pop_back();
  }
  expect_pools_empty(alloc, rack.nodes);
}

TEST_P(AllocatorProperties, AccountingMatchesSumOfLiveAllocations) {
  const rack::RackConfig rack;
  RackAllocator alloc(rack, GetParam());
  sim::Rng rng(4242);
  std::vector<Allocation> live;
  for (int op = 0; op < 1000; ++op) {
    if (live.empty() || rng.bernoulli(0.55)) {
      const Allocation a = alloc.allocate(random_request(rng));
      if (a.placed) live.push_back(a);
    } else {
      const std::size_t victim = rng.below(live.size());
      alloc.release(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    long long cpus = 0, gpus = 0, nodes = 0;
    sim::Quanta mem = 0, nic = 0;
    for (const Allocation& a : live) {
      cpus += a.cpus;
      gpus += a.gpus;
      nodes += a.nodes;
      mem += a.memory;
      nic += a.nic;
    }
    ASSERT_EQ(alloc.pools().cpus_used, cpus) << "op " << op;
    ASSERT_EQ(alloc.pools().gpus_used, gpus) << "op " << op;
    ASSERT_EQ(alloc.pools().memory_used, mem) << "op " << op;
    ASSERT_EQ(alloc.pools().nic_used, nic) << "op " << op;
    ASSERT_EQ(alloc.free_nodes(), rack.nodes - nodes) << "op " << op;
  }
}

TEST_P(AllocatorProperties, DoubleFreeIsRejectedWithoutCorruption) {
  RackAllocator alloc({}, GetParam());
  sim::Rng rng(1);
  JobRequest req;
  req.cpus = 8;
  req.gpus = 2;
  req.memory_gb = 64.0;
  const Allocation keep = alloc.allocate(random_request(rng));
  const Allocation once = alloc.allocate(req);
  ASSERT_TRUE(once.placed);

  const PoolState before_release = alloc.pools();
  alloc.release(once);
  const PoolState after_release = alloc.pools();
  EXPECT_LT(after_release.cpus_used, before_release.cpus_used);

  // The second free of the same allocation must throw *and* leave every
  // pool exactly where the first release put it.
  EXPECT_THROW(alloc.release(once), std::logic_error);
  EXPECT_EQ(alloc.pools().cpus_used, after_release.cpus_used);
  EXPECT_EQ(alloc.pools().gpus_used, after_release.gpus_used);
  EXPECT_EQ(alloc.pools().memory_used, after_release.memory_used);
  EXPECT_EQ(alloc.pools().nic_used, after_release.nic_used);

  // A still-live allocation releases fine after the rejected double free.
  if (keep.placed) alloc.release(keep);
}

TEST_P(AllocatorProperties, ForeignAllocationIsRejected) {
  RackAllocator owner({}, GetParam());
  RackAllocator other({}, GetParam());
  JobRequest req;
  req.cpus = 4;
  // The aliasing trap: both allocators grant their FIRST allocation here.
  // Were ids per-allocator counters, owner's id would collide with other's
  // and the foreign release would silently drain other's pools; ids are
  // process-globally unique precisely so this throws instead.
  const Allocation foreign = owner.allocate(req);
  const Allocation own = other.allocate(req);
  ASSERT_TRUE(foreign.placed);
  ASSERT_TRUE(own.placed);
  const int other_cpus_used = other.pools().cpus_used;
  EXPECT_THROW(other.release(foreign), std::logic_error);
  EXPECT_EQ(other.pools().cpus_used, other_cpus_used);
  EXPECT_EQ(other.live_allocations(), 1u);
  other.release(own);  // other's own grant is still releasable
  owner.release(foreign);
  EXPECT_EQ(owner.live_allocations(), 0u);
  EXPECT_EQ(other.live_allocations(), 0u);
}

TEST_P(AllocatorProperties, MutatedHandleReleasesExactlyTheStoredGrant) {
  // release() decrements by the grant the allocator recorded, not by the
  // caller's copy: corrupting an Allocation's resource fields cannot skew
  // the accounting in either direction.
  RackAllocator alloc({}, GetParam());
  JobRequest req;
  req.cpus = 1;
  req.memory_gb = 64.0;
  Allocation a = alloc.allocate(req);
  ASSERT_TRUE(a.placed);
  Allocation mutated = a;
  mutated.cpus = 1'000'000;
  mutated.memory = sim::to_quanta(10'000.0);  // caller corruption, silently ignored
  mutated.marooned_cpus = 1'000'000'000;
  alloc.release(mutated);
  EXPECT_EQ(alloc.pools().cpus_used, 0);
  EXPECT_EQ(alloc.pools().memory_used, 0);
  EXPECT_EQ(alloc.marooned_cpu_fraction(), 0.0);
  EXPECT_EQ(alloc.live_allocations(), 0u);
  // The id is spent: the original handle is now a double free.
  EXPECT_THROW(alloc.release(a), std::logic_error);
}

TEST_P(AllocatorProperties, UnplacedReleaseIsStillANoop) {
  RackAllocator alloc({}, GetParam());
  Allocation unplaced;
  alloc.release(unplaced);  // must not throw
  EXPECT_EQ(alloc.live_allocations(), 0u);
}

// ---------------------------------------------------------------------------
// Fault-path revocation properties (the fault-engine PR satellite): revoke()
// must account exactly like release() under arbitrary interleavings, drain
// the allocator to exactly zero, and reject stale handles pre-mutation.
// ---------------------------------------------------------------------------

TEST_P(AllocatorProperties, InterleavedRevokeAndReleaseDrainToExactlyZero) {
  const rack::RackConfig rack;
  RackAllocator alloc(rack, GetParam());
  sim::Rng rng(20260808);
  std::vector<Allocation> live;
  std::uint64_t revokes = 0, releases = 0;

  for (int op = 0; op < 4000; ++op) {
    if (live.empty() || rng.bernoulli(0.55)) {
      const Allocation a = alloc.allocate(random_request(rng));
      if (a.placed) live.push_back(a);
    } else {
      const std::size_t victim = rng.below(live.size());
      // A fault revokes; a completion releases — the pools must not care.
      if (rng.bernoulli(0.5)) {
        alloc.revoke(live[victim]);
        ++revokes;
      } else {
        alloc.release(live[victim]);
        ++releases;
      }
      live[victim] = live.back();
      live.pop_back();
    }
    expect_pools_within_capacity(alloc, rack.nodes);
    ASSERT_EQ(alloc.live_allocations(), live.size()) << "op " << op;
  }
  ASSERT_GT(revokes, 0u);
  EXPECT_EQ(alloc.counters().revocations, revokes);
  EXPECT_EQ(alloc.counters().releases, releases);

  // Forcibly revoke every survivor, shuffled: the allocator must return to
  // the bit-exact pristine state, same as voluntary release.
  while (!live.empty()) {
    const std::size_t victim = rng.below(live.size());
    alloc.revoke(live[victim]);
    live[victim] = live.back();
    live.pop_back();
  }
  expect_pools_empty(alloc, rack.nodes);
}

TEST_P(AllocatorProperties, DoubleRevokeAndRevokeAfterReleaseThrowPreMutation) {
  RackAllocator alloc({}, GetParam());
  JobRequest req;
  req.cpus = 8;
  req.memory_gb = 64.0;
  const Allocation revoked_once = alloc.allocate(req);
  const Allocation released_once = alloc.allocate(req);
  ASSERT_TRUE(revoked_once.placed);
  ASSERT_TRUE(released_once.placed);

  alloc.revoke(revoked_once);
  alloc.release(released_once);
  const PoolState settled = alloc.pools();
  const std::uint64_t revocations = alloc.counters().revocations;
  const std::uint64_t releases = alloc.counters().releases;

  // Every stale-handle combination must throw BEFORE touching any pool or
  // counter: revoke-after-revoke, revoke-after-release, release-after-revoke.
  EXPECT_THROW(alloc.revoke(revoked_once), std::logic_error);
  EXPECT_THROW(alloc.revoke(released_once), std::logic_error);
  EXPECT_THROW(alloc.release(revoked_once), std::logic_error);
  EXPECT_EQ(alloc.pools().cpus_used, settled.cpus_used);
  EXPECT_EQ(alloc.pools().gpus_used, settled.gpus_used);
  EXPECT_EQ(alloc.pools().memory_used, settled.memory_used);
  EXPECT_EQ(alloc.pools().nic_used, settled.nic_used);
  EXPECT_EQ(alloc.counters().revocations, revocations);
  EXPECT_EQ(alloc.counters().releases, releases);
  EXPECT_EQ(alloc.live_allocations(), 0u);

  // An unplaced revoke stays a no-op, mirroring release().
  Allocation unplaced;
  alloc.revoke(unplaced);
  EXPECT_EQ(alloc.counters().revocations, revocations);
}

TEST_P(AllocatorProperties, OfflineNodesShrinkPoolsAndComeBackExactly) {
  const rack::RackConfig rack;
  RackAllocator alloc(rack, GetParam());
  const PoolState pristine = alloc.pools();

  for (const int n : {0, 5, rack.nodes - 1}) alloc.take_node_offline(n);
  EXPECT_EQ(alloc.offline_nodes(), 3);
  EXPECT_EQ(alloc.free_nodes(), rack.nodes - 3);
  EXPECT_EQ(alloc.pools().cpus_total, pristine.cpus_total - 3 * rack.node.cpus);
  EXPECT_EQ(alloc.pools().gpus_total, pristine.gpus_total - 3 * rack.node.gpus);
  EXPECT_LT(alloc.pools().memory_total, pristine.memory_total);

  for (const int n : {5, 0, rack.nodes - 1}) alloc.bring_node_online(n);
  EXPECT_EQ(alloc.offline_nodes(), 0);
  EXPECT_EQ(alloc.free_nodes(), rack.nodes);
  EXPECT_EQ(alloc.pools().cpus_total, pristine.cpus_total);
  EXPECT_EQ(alloc.pools().gpus_total, pristine.gpus_total);
  EXPECT_EQ(alloc.pools().memory_total, pristine.memory_total);
  EXPECT_EQ(alloc.pools().nic_total, pristine.nic_total);

  // Each node changes state once: no repairing an online node, no failing
  // an offline one, no node outside the rack.
  EXPECT_THROW(alloc.bring_node_online(0), std::logic_error);
  alloc.take_node_offline(0);
  EXPECT_THROW(alloc.take_node_offline(0), std::logic_error);
  EXPECT_THROW(alloc.take_node_offline(rack.nodes), std::out_of_range);
  EXPECT_THROW(alloc.bring_node_online(-1), std::out_of_range);
  EXPECT_EQ(alloc.offline_nodes(), 1);
}

TEST(AllocatorOffline, StaticNodesRefuseToRetireAnOccupiedNode) {
  rack::RackConfig rack;
  rack.nodes = 2;
  RackAllocator alloc(rack, AllocationPolicy::kStaticNodes);
  JobRequest req;
  req.cpus = rack.node.cpus;  // exactly one whole node
  const Allocation a = alloc.allocate(req);
  ASSERT_TRUE(a.placed);
  ASSERT_EQ(a.hosts, std::vector<int>{0});
  // Node 0 is granted, node 1 free: node 0 must not retire (revoke first).
  EXPECT_THROW(alloc.take_node_offline(0), std::logic_error);
  alloc.take_node_offline(1);  // the free one retires fine
  alloc.revoke(a);
  alloc.take_node_offline(0);  // now the survivor can retire too
  EXPECT_EQ(alloc.free_nodes(), 0);
  alloc.bring_node_online(0);
  alloc.bring_node_online(1);
  EXPECT_EQ(alloc.free_nodes(), rack.nodes);
}

TEST(AllocatorNodes, StaticGrantsNameFirstFitFreeOnlineNodes) {
  rack::RackConfig rack;
  rack.nodes = 6;
  RackAllocator alloc(rack, AllocationPolicy::kStaticNodes);
  JobRequest two;
  two.cpus = 2 * rack.node.cpus;
  JobRequest one;
  one.cpus = 1;
  const Allocation a = alloc.allocate(two);
  const Allocation b = alloc.allocate(one);
  EXPECT_EQ(a.hosts, (std::vector<int>{0, 1}));
  EXPECT_EQ(b.hosts, std::vector<int>{2});
  alloc.take_node_offline(3);
  alloc.release(a);  // nodes 0 and 1 are free again
  const Allocation c = alloc.allocate(JobRequest{.cpus = 3 * rack.node.cpus});
  EXPECT_EQ(c.hosts, (std::vector<int>{0, 1, 4}));  // skips held 2, offline 3
  alloc.release(b);
  alloc.release(c);
  alloc.bring_node_online(3);
  const Allocation all = alloc.allocate(JobRequest{.cpus = 6 * rack.node.cpus});
  EXPECT_EQ(all.hosts, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(AllocatorNodes, DisaggregatedHomesRoundRobinAndSkipOfflineNodes) {
  rack::RackConfig rack;
  rack.nodes = 4;
  RackAllocator alloc(rack, AllocationPolicy::kDisaggregated);
  const JobRequest req{.memory_gb = 1.0};
  std::vector<int> homes;
  auto place = [&] {
    const Allocation a = alloc.allocate(req);
    EXPECT_TRUE(a.placed);
    EXPECT_EQ(a.nodes, 0);
    ASSERT_EQ(a.hosts.size(), 1u);
    homes.push_back(a.hosts.front());
  };
  for (int i = 0; i < 5; ++i) place();
  EXPECT_EQ(homes, (std::vector<int>{0, 1, 2, 3, 0}));
  alloc.take_node_offline(2);
  alloc.take_node_offline(3);
  homes.clear();
  for (int i = 0; i < 3; ++i) place();
  // The counter moves past each skipped node, so the rotation stays fair.
  EXPECT_EQ(homes, (std::vector<int>{1, 0, 1}));
  // A failed placement does not advance the rotation.
  EXPECT_FALSE(alloc.allocate(JobRequest{.cpus = 4 * rack.node.cpus}).placed);
  alloc.bring_node_online(2);
  homes.clear();
  place();
  EXPECT_EQ(homes, std::vector<int>{2});
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AllocatorProperties,
                         ::testing::Values(AllocationPolicy::kStaticNodes,
                                           AllocationPolicy::kDisaggregated),
                         [](const ::testing::TestParamInfo<AllocationPolicy>& info) {
                           return info.param == AllocationPolicy::kStaticNodes
                                      ? "StaticNodes"
                                      : "Disaggregated";
                         });

}  // namespace
}  // namespace photorack::disagg
