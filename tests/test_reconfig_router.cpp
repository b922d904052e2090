#include "net/reconfig_router.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace photorack::net {
namespace {

struct Rig {
  rack::SpatialFabricPlan plan =
      rack::build_rack_design(rack::FabricKind::kSpatialOrWss).spatial;
  CentralizedScheduler scheduler{plan};
  ReconfigRouter router{plan, scheduler};
};

TEST(ReconfigRouter, FirstFlowPaysReconfiguration) {
  Rig rig;
  const auto p = rig.router.place(0, 1, 100.0, 0);
  ASSERT_TRUE(p.placed);
  EXPECT_TRUE(p.reconfigured);
  EXPECT_GT(p.ready_at, 0);  // decision + reconfiguration time
  EXPECT_EQ(rig.router.reconfigurations(), 1u);
}

TEST(ReconfigRouter, SecondFlowRidesExistingCircuit) {
  Rig rig;
  (void)rig.router.place(0, 1, 100.0, 0);
  const auto p = rig.router.place(0, 1, 100.0, sim::kPsPerMs);
  ASSERT_TRUE(p.placed);
  EXPECT_FALSE(p.reconfigured);
  EXPECT_EQ(p.ready_at, sim::kPsPerMs);  // immediate
  EXPECT_EQ(rig.router.reconfigurations(), 1u);
  EXPECT_EQ(rig.router.direct_hits(), 1u);
}

TEST(ReconfigRouter, IndirectAvoidsReconfiguration) {
  // Circuits 5->7 and 7->9 exist; a 5->9 flow should ride them instead of
  // asking the scheduler (the §IV-B synergy).
  Rig rig;
  (void)rig.router.place(5, 7, 10.0, 0);
  (void)rig.router.place(7, 9, 10.0, 0);
  const auto before = rig.router.reconfigurations();
  const auto p = rig.router.place(5, 9, 100.0, sim::kPsPerMs);
  ASSERT_TRUE(p.placed);
  EXPECT_TRUE(p.indirect);
  EXPECT_FALSE(p.reconfigured);
  EXPECT_EQ(rig.router.reconfigurations(), before);
  ASSERT_EQ(p.circuits_used.size(), 2u);
}

TEST(ReconfigRouter, IndirectDisabledForcesReconfiguration) {
  rack::SpatialFabricPlan plan =
      rack::build_rack_design(rack::FabricKind::kSpatialOrWss).spatial;
  CentralizedScheduler scheduler{plan};
  ReconfigRouter::Config cfg;
  cfg.use_indirect = false;
  ReconfigRouter router{plan, scheduler, cfg};
  (void)router.place(5, 7, 10.0, 0);
  (void)router.place(7, 9, 10.0, 0);
  const auto p = router.place(5, 9, 100.0, sim::kPsPerMs);
  ASSERT_TRUE(p.placed);
  EXPECT_TRUE(p.reconfigured);
  EXPECT_EQ(router.indirect_hits(), 0u);
}

TEST(ReconfigRouter, CapacityIsConserved) {
  Rig rig;
  const auto p1 = rig.router.place(0, 1, 6000.0, 0);
  ASSERT_TRUE(p1.placed);
  EXPECT_EQ(rig.router.circuit_headroom(0, 1), sim::to_quanta(400.0));
  rig.router.release(p1);
  EXPECT_EQ(rig.router.circuit_headroom(0, 1), sim::to_quanta(6400.0));
}

// The circuit ledger is integer like every other capacity ledger: a second
// release of the same placement is a bookkeeping bug, not a no-op.
TEST(ReconfigRouter, DoubleReleaseThrows) {
  Rig rig;
  const auto p = rig.router.place(0, 1, 100.0, 0);
  ASSERT_TRUE(p.placed);
  rig.router.release(p);
  EXPECT_EQ(rig.router.circuit_headroom(0, 1), sim::to_quanta(6400.0));
  EXPECT_THROW(rig.router.release(p), std::logic_error);
}

TEST(ReconfigRouter, SaturatedCircuitTriggersNewSetup) {
  Rig rig;
  (void)rig.router.place(0, 1, 6400.0, 0);  // fill the first circuit
  const auto p = rig.router.place(0, 1, 100.0, 0);
  ASSERT_TRUE(p.placed);
  EXPECT_TRUE(p.reconfigured);  // needed a second circuit
  EXPECT_EQ(rig.router.reconfigurations(), 2u);
}

TEST(ReconfigRouter, OversizeFlowFailsCleanly) {
  Rig rig;
  const auto p = rig.router.place(0, 1, 10'000.0, 0);  // > one circuit
  EXPECT_FALSE(p.placed);
}

TEST(ReconfigRouter, ReleaseOfUnplacedIsNoop) {
  Rig rig;
  ReconfigRouter::Placement unplaced;
  rig.router.release(unplaced);
  EXPECT_EQ(rig.router.reconfigurations(), 0u);
}

}  // namespace
}  // namespace photorack::net
