#include "net/routing.hpp"

#include <gtest/gtest.h>

#include "rack/rack_builder.hpp"

namespace photorack::net {
namespace {

constexpr sim::Quanta q(double gbps) { return sim::to_quanta(gbps); }

struct Rig {
  WavelengthFabric fabric;
  PiggybackView view;
  IndirectRouter router;

  explicit Rig(std::uint64_t seed = 1)
      : fabric(350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr),
        view(fabric, sim::kPsPerUs),
        router(fabric, view, seed) {}
};

TEST(Routing, SmallDemandGoesDirect) {
  Rig rig;
  const auto result = rig.router.route(10, 20, q(25.0));
  EXPECT_TRUE(result.fully_satisfied());
  EXPECT_EQ(result.direct, q(25.0));
  EXPECT_EQ(result.intermediates_used, 0);
}

TEST(Routing, DirectBudgetIs125Gbps) {
  Rig rig;
  const auto result = rig.router.route(10, 20, q(125.0));
  EXPECT_TRUE(result.fully_satisfied());
  EXPECT_GE(result.direct, q(125.0));
  EXPECT_EQ(result.intermediates_used, 0);
}

TEST(Routing, LargeDemandSpillsToIndirect) {
  Rig rig;
  const auto result = rig.router.route(10, 20, q(500.0));
  EXPECT_TRUE(result.fully_satisfied());
  EXPECT_GT(result.indirect, 0);
  EXPECT_GT(result.intermediates_used, 0);
}

TEST(Routing, FullEscapeBandwidthReachable) {
  // Section VI-A case (A): one MCM can aim its whole escape bandwidth at a
  // single destination using indirect routing alone.
  Rig rig;
  const auto result = rig.router.route(10, 20, q(8000.0));
  EXPECT_GT(result.satisfied(), 7000.0);
}

TEST(Routing, ConservationOfSegments) {
  // Property: per-segment reservations equal direct + 1x indirect (src->mid)
  // + 1x indirect (mid->dst) + second-hop legs; releasing restores an idle
  // fabric exactly.
  Rig rig;
  const auto r1 = rig.router.route(1, 2, q(700.0));
  const auto r2 = rig.router.route(3, 2, q(400.0));
  rig.router.release(r1);
  rig.router.release(r2);
  EXPECT_EQ(rig.fabric.utilization(), 0.0);
}

TEST(Routing, SegmentsAccountForSatisfiedBandwidth) {
  Rig rig;
  const auto result = rig.router.route(5, 6, q(300.0));
  sim::Quanta into_dst = 0;
  for (const auto& seg : result.segments)
    if (seg.to == 6) into_dst += seg.bw;
  EXPECT_EQ(into_dst, result.direct + result.indirect);
}

TEST(Routing, NoSegmentTouchesSourceAsDestination) {
  Rig rig;
  const auto result = rig.router.route(5, 6, q(2000.0));
  for (const auto& seg : result.segments) {
    EXPECT_NE(seg.to, 5);
    EXPECT_NE(seg.from, 6);
  }
}

TEST(Routing, DeterministicForSeed) {
  Rig a(77), b(77);
  const auto ra = a.router.route(8, 9, q(1000.0));
  const auto rb = b.router.route(8, 9, q(1000.0));
  EXPECT_EQ(ra.direct, rb.direct);
  EXPECT_EQ(ra.indirect, rb.indirect);
  EXPECT_EQ(ra.segments.size(), rb.segments.size());
}

TEST(Routing, StaleViewTriggersSecondHop) {
  Rig rig;
  // Saturate mid->dst links behind the view's back: the view still believes
  // they are free, so a mis-pick and second-hop repair must occur.
  rig.view.force_refresh(0);
  for (int mid = 0; mid < 350; ++mid) {
    if (mid == 100 || mid == 200) continue;
    rig.fabric.allocate_direct(mid, 200, rig.fabric.direct_capacity(mid, 200));
  }
  const auto result = rig.router.route(100, 200, q(500.0));
  EXPECT_GT(result.stale_mispicks, 0);
  // Everything beyond the direct 125 Gb/s needed repair, and repair paths
  // into 200 are saturated too — so blocked bandwidth appears.
  EXPECT_GT(result.blocked, 0);
}

TEST(Routing, FreshViewAvoidsMispicks) {
  Rig rig;
  for (int mid = 0; mid < 350; ++mid) {
    if (mid == 100 || mid == 200) continue;
    rig.fabric.allocate_direct(mid, 200, rig.fabric.direct_capacity(mid, 200));
  }
  rig.view.force_refresh(0);  // now the view knows
  const auto result = rig.router.route(100, 200, q(500.0));
  EXPECT_EQ(result.stale_mispicks, 0);
  EXPECT_EQ(result.indirect, 0);  // no candidates at all
}

TEST(Routing, CumulativeCountersAdvance) {
  Rig rig;
  (void)rig.router.route(1, 2, q(50.0));
  (void)rig.router.route(2, 3, q(50.0));
  EXPECT_EQ(rig.router.flows_routed(), 2u);
}

/// Fuzz property: any interleaving of route/refresh/release operations
/// leaves the fabric exactly empty once everything is released, never
/// over-allocates a wavelength, and never loses reserved bandwidth.
class RoutingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingFuzz, ConservationUnderRandomChurn) {
  Rig rig(GetParam());
  sim::Rng rng(GetParam() ^ 0xABCDEF);
  std::vector<RouteResult> live;
  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    if (action < 0.55 || live.empty()) {
      const int src = static_cast<int>(rng.below(350));
      int dst = static_cast<int>(rng.below(350));
      if (dst == src) dst = (dst + 1) % 350;
      const sim::Quanta demand = q(rng.uniform(1.0, 600.0));
      auto r = rig.router.route(src, dst, demand);
      // Accounting identity: pieces sum to the request, exactly.
      EXPECT_EQ(r.direct + r.indirect + r.blocked, r.requested);
      EXPECT_EQ(r.requested, demand);
      live.push_back(std::move(r));
    } else if (action < 0.85) {
      const std::size_t pick = rng.below(live.size());
      rig.router.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      rig.view.force_refresh(step);
    }
    EXPECT_LE(rig.fabric.utilization(), 1.0);
  }
  for (const auto& r : live) rig.router.release(r);
  EXPECT_EQ(rig.fabric.utilization(), 0.0);
  for (const sim::Quanta used : rig.fabric.allocation_snapshot()) ASSERT_EQ(used, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace photorack::net
