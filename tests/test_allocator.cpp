#include "disagg/allocator.hpp"

#include <gtest/gtest.h>

namespace photorack::disagg {
namespace {

TEST(Allocator, StaticGrantsWholeNodes) {
  RackAllocator alloc({}, AllocationPolicy::kStaticNodes);
  JobRequest req;
  req.cpus = 1;
  req.memory_gb = 10.0;
  const auto a = alloc.allocate(req);
  EXPECT_TRUE(a.placed);
  EXPECT_EQ(a.nodes, 1);
  EXPECT_EQ(a.gpus, 4);              // whole node granted
  EXPECT_EQ(a.memory, sim::to_quanta(256.0));
  EXPECT_EQ(a.marooned_memory, sim::to_quanta(246.0));
}

TEST(Allocator, StaticSizesByLargestDemand) {
  RackAllocator alloc({}, AllocationPolicy::kStaticNodes);
  JobRequest req;
  req.cpus = 1;
  req.gpus = 9;  // needs ceil(9/4) = 3 nodes
  const auto a = alloc.allocate(req);
  EXPECT_EQ(a.nodes, 3);
}

TEST(Allocator, StaticExhaustsNodes) {
  rack::RackConfig small;
  small.nodes = 2;
  RackAllocator alloc(small, AllocationPolicy::kStaticNodes);
  JobRequest req;
  req.gpus = 8;  // two nodes
  EXPECT_TRUE(alloc.allocate(req).placed);
  EXPECT_FALSE(alloc.allocate(req).placed);
}

TEST(Allocator, DisaggregatedTakesExactAmounts) {
  RackAllocator alloc({}, AllocationPolicy::kDisaggregated);
  JobRequest req;
  req.cpus = 3;
  req.gpus = 2;
  req.memory_gb = 100.0;
  req.nic_gbps = 50.0;
  const auto a = alloc.allocate(req);
  EXPECT_TRUE(a.placed);
  EXPECT_EQ(a.cpus, 3);
  EXPECT_EQ(a.gpus, 2);
  EXPECT_EQ(a.memory, sim::to_quanta(100.0));
  EXPECT_EQ(a.nic, sim::to_quanta(50.0));
  EXPECT_EQ(a.marooned_memory, 0);
}

TEST(Allocator, DisaggregatedPoolLimits) {
  rack::RackConfig small;
  small.nodes = 1;
  RackAllocator alloc(small, AllocationPolicy::kDisaggregated);
  JobRequest req;
  req.gpus = 5;  // pool has 4
  EXPECT_FALSE(alloc.allocate(req).placed);
  req.gpus = 4;
  EXPECT_TRUE(alloc.allocate(req).placed);
}

TEST(Allocator, ReleaseRestoresPools) {
  RackAllocator alloc({}, AllocationPolicy::kDisaggregated);
  JobRequest req;
  req.cpus = 10;
  req.memory_gb = 1000.0;
  const auto a = alloc.allocate(req);
  alloc.release(a);
  EXPECT_EQ(alloc.pools().cpus_used, 0);
  EXPECT_EQ(alloc.pools().memory_used, 0);
}

TEST(Allocator, StaticReleaseRestoresNodesAndMarooning) {
  RackAllocator alloc({}, AllocationPolicy::kStaticNodes);
  JobRequest req;
  req.cpus = 1;
  const auto a = alloc.allocate(req);
  EXPECT_GT(alloc.marooned_memory_fraction(), 0.0);
  alloc.release(a);
  EXPECT_EQ(alloc.free_nodes(), 128);
  EXPECT_DOUBLE_EQ(alloc.marooned_memory_fraction(), 0.0);
}

TEST(Allocator, UtilizationAccounting) {
  RackAllocator alloc({}, AllocationPolicy::kDisaggregated);
  JobRequest req;
  req.gpus = 256;  // half the rack's 512
  (void)alloc.allocate(req);
  EXPECT_NEAR(alloc.pools().gpu_utilization(), 0.5, 1e-12);
}

TEST(Allocator, SameDemandMaroonsOnlyUnderStaticPolicy) {
  // The motivating comparison of Section I: identical demand, very
  // different held-resource footprints.
  JobRequest req;
  req.cpus = 1;
  req.memory_gb = 25.0;  // ~10% of a node, like Cori's median job
  RackAllocator stat({}, AllocationPolicy::kStaticNodes);
  RackAllocator disagg({}, AllocationPolicy::kDisaggregated);
  (void)stat.allocate(req);
  (void)disagg.allocate(req);
  EXPECT_GT(stat.pools().memory_utilization(), 10 * disagg.pools().memory_utilization());
}

TEST(Allocator, NegativeRequestThrows) {
  RackAllocator alloc({}, AllocationPolicy::kDisaggregated);
  JobRequest req;
  req.cpus = -1;
  EXPECT_THROW(alloc.allocate(req), std::invalid_argument);
}

TEST(Allocator, ReleaseOfUnplacedIsNoop) {
  RackAllocator alloc({}, AllocationPolicy::kDisaggregated);
  Allocation unplaced;
  alloc.release(unplaced);
  EXPECT_EQ(alloc.pools().cpus_used, 0);
}

TEST(Allocator, CountersTrackAttemptsPlacementsAndReleases) {
  rack::RackConfig small;
  small.nodes = 2;
  RackAllocator alloc(small, AllocationPolicy::kStaticNodes);
  JobRequest req;
  req.gpus = 8;  // two nodes: the second allocate must be rejected
  const auto a = alloc.allocate(req);
  EXPECT_TRUE(a.placed);
  EXPECT_FALSE(alloc.allocate(req).placed);
  EXPECT_EQ(alloc.counters().attempts, 2u);
  EXPECT_EQ(alloc.counters().placements, 1u);
  EXPECT_EQ(alloc.counters().rejections(), 1u);
  EXPECT_EQ(alloc.counters().releases, 0u);

  alloc.release(a);
  EXPECT_THROW(alloc.release(a), std::logic_error);  // double release
  EXPECT_EQ(alloc.counters().releases, 1u);

  // Invalid requests never reach the attempt counter: rejections() keeps
  // meaning "shape-valid demand the rack could not place".
  JobRequest bad;
  bad.cpus = -1;
  EXPECT_THROW(alloc.allocate(bad), std::invalid_argument);
  EXPECT_EQ(alloc.counters().attempts, 2u);
}

}  // namespace
}  // namespace photorack::disagg
