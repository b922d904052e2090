#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include "rack/rack_builder.hpp"

namespace photorack::net {
namespace {

rack::AwgrFabricPlan paper_plan() {
  return rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr;
}

TEST(Fabric, ConstructionFromPaperPlan) {
  WavelengthFabric fabric(350, paper_plan());
  EXPECT_EQ(fabric.mcms(), 350);
  EXPECT_EQ(fabric.parallel_awgrs(), 6);
  EXPECT_DOUBLE_EQ(fabric.gbps_per_wavelength(), 25.0);
}

TEST(Fabric, EveryPairHasAtLeastFiveDirectLambdas) {
  WavelengthFabric fabric(350, paper_plan());
  int min_lambdas = 1000;
  for (int s = 0; s < 350; s += 7) {
    for (int d = 0; d < 350; d += 11) {
      if (s == d) continue;
      min_lambdas = std::min(min_lambdas, fabric.direct_lambdas(s, d));
    }
  }
  EXPECT_GE(min_lambdas, 5);
}

TEST(Fabric, NoSelfWavelengths) {
  WavelengthFabric fabric(350, paper_plan());
  EXPECT_EQ(fabric.direct_lambdas(5, 5), 0);
}

TEST(Fabric, AllocateReleasesRoundTrip) {
  WavelengthFabric fabric(350, paper_plan());
  const sim::Quanta want = sim::to_quanta(60.0);
  EXPECT_EQ(fabric.allocate_direct(1, 2, want), want);
  EXPECT_EQ(fabric.free_direct(1, 2), fabric.direct_capacity(1, 2) - want);
  fabric.release_direct(1, 2, want);
  EXPECT_EQ(fabric.free_direct(1, 2), fabric.direct_capacity(1, 2));
}

TEST(Fabric, AllocationCapsAtCapacity) {
  WavelengthFabric fabric(350, paper_plan());
  const sim::Quanta cap = fabric.direct_capacity(3, 4);
  EXPECT_EQ(fabric.allocate_direct(3, 4, cap + sim::to_quanta(500.0)), cap);
  EXPECT_EQ(fabric.free_direct(3, 4), 0);
}

TEST(Fabric, PairsAreIndependent) {
  WavelengthFabric fabric(350, paper_plan());
  fabric.allocate_direct(1, 2, sim::to_quanta(100.0));
  EXPECT_EQ(fabric.free_direct(2, 1), fabric.direct_capacity(2, 1));
  EXPECT_EQ(fabric.free_direct(1, 3), fabric.direct_capacity(1, 3));
}

TEST(Fabric, OverReleaseThrows) {
  WavelengthFabric fabric(350, paper_plan());
  fabric.allocate_direct(1, 2, sim::to_quanta(10.0));
  EXPECT_THROW(fabric.release_direct(1, 2, sim::to_quanta(20.0)), std::logic_error);
  // Exact: one quantum beyond the reservation is already an over-release,
  // and the failed release leaves the pair untouched.
  EXPECT_THROW(fabric.release_direct(1, 2, sim::to_quanta(10.0) + 1), std::logic_error);
  EXPECT_EQ(fabric.allocated(1, 2), sim::to_quanta(10.0));
}

TEST(Fabric, UtilizationTracksAllocation) {
  WavelengthFabric fabric(350, paper_plan());
  EXPECT_EQ(fabric.utilization(), 0.0);
  fabric.allocate_direct(0, 1, sim::to_quanta(125.0));
  EXPECT_GT(fabric.utilization(), 0.0);
  fabric.release_direct(0, 1, sim::to_quanta(125.0));
  EXPECT_EQ(fabric.utilization(), 0.0);
}

// The running totals behind utilization() must equal a from-scratch scan of
// the ledger — allocated over covered capacity, including degraded pairs —
// on a slice and on the full rack, whose last AWGR covers only part of the
// destinations.
TEST(Fabric, UtilizationEqualsFullScan) {
  for (const int mcms : {24, 350}) {
    WavelengthFabric fabric(mcms, paper_plan());
    fabric.allocate_direct(0, 1, sim::to_quanta(40.0));
    fabric.allocate_direct(5, 7, sim::to_quanta(3.3));
    fabric.push_pair_factor(5, 7, 0.5);
    fabric.push_pair_factor(2, 9, 0.0);
    sim::Quanta used = 0, cap = 0;
    for (int s = 0; s < mcms; ++s)
      for (int d = 0; d < mcms; ++d) {
        used += fabric.allocated(s, d);
        cap += fabric.direct_capacity(s, d);
      }
    EXPECT_EQ(fabric.utilization(), static_cast<double>(used) / static_cast<double>(cap))
        << mcms << " MCMs";
  }
}

TEST(Fabric, RejectsTooManyMcms) {
  EXPECT_THROW(WavelengthFabric(371, paper_plan()), std::invalid_argument);
}

TEST(Fabric, PartialPortCoversSubsetOfDestinations) {
  WavelengthFabric fabric(350, paper_plan());
  // The 6th AWGR carries fewer wavelengths than there are MCMs: some pairs
  // get 6 direct lambdas, others only the guaranteed 5.
  bool saw5 = false, saw6 = false;
  for (int d = 1; d < 350; ++d) {
    const int n = fabric.direct_lambdas(0, d);
    if (n == 5) saw5 = true;
    if (n == 6) saw6 = true;
  }
  EXPECT_TRUE(saw5);
  EXPECT_TRUE(saw6);
}

}  // namespace
}  // namespace photorack::net
