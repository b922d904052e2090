#include "net/flow_sim.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "rack/rack_builder.hpp"
#include "workloads/usage.hpp"

namespace photorack::net {
namespace {

WavelengthFabric make_fabric() {
  return WavelengthFabric(350,
                          rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
}

FlowGenerator cori_generator() {
  const auto demand = workloads::FlowDemandModel::cpu_memory();
  return [demand](sim::Rng& rng) {
    FlowSpec spec;
    spec.src = static_cast<int>(rng.below(350));
    spec.dst = static_cast<int>((spec.src + 1 + rng.below(349)) % 350);
    spec.gbps = demand.sample_gbps(rng);
    spec.duration = static_cast<sim::TimePs>(rng.exponential(10.0 * sim::kPsPerUs));
    return spec;
  };
}

TEST(FlowSim, RunsToCompletion) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.sim_time = 50 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  const auto report = sim_inst.run();
  EXPECT_GT(report.flows, 10u);
}

TEST(FlowSim, CoriDemandsAreAlmostAlwaysSatisfied) {
  // Section VI-A's conclusion: blocked bandwidth is negligible for
  // production-like demands.
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.arrivals_per_us = 3.0;
  cfg.sim_time = 200 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  const auto report = sim_inst.run();
  EXPECT_GT(report.satisfied_fraction, 0.99);
  // 97% of demands fit one wavelength *by count*; by bandwidth the rare
  // elephants carry a disproportionate share, so the direct fraction of
  // satisfied bandwidth sits lower.
  EXPECT_GT(report.direct_fraction, 0.7);
}

TEST(FlowSim, FabricIsCleanAfterRun) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.sim_time = 50 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  (void)sim_inst.run();
  // All flows departed (the queue drained), so every reservation was
  // released, exactly.
  EXPECT_EQ(fabric.utilization(), 0.0);
  for (const sim::Quanta used : fabric.allocation_snapshot()) ASSERT_EQ(used, 0);
}

TEST(FlowSim, DeterministicForSeed) {
  FlowSimConfig cfg;
  cfg.sim_time = 50 * sim::kPsPerUs;
  cfg.seed = 31337;
  auto f1 = make_fabric();
  auto f2 = make_fabric();
  FlowSimulator s1(f1, cori_generator(), cfg);
  FlowSimulator s2(f2, cori_generator(), cfg);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_EQ(r1.flows, r2.flows);
  EXPECT_DOUBLE_EQ(r1.satisfied_fraction, r2.satisfied_fraction);
  EXPECT_EQ(r1.stale_mispicks, r2.stale_mispicks);
}

TEST(FlowSim, StepwiseAdvanceMatchesRunToCompletion) {
  FlowSimConfig cfg;
  cfg.sim_time = 100 * sim::kPsPerUs;
  auto f1 = make_fabric();
  auto f2 = make_fabric();
  FlowSimulator whole(f1, cori_generator(), cfg);
  const auto expected = whole.run();

  FlowSimulator chunked(f2, cori_generator(), cfg);
  for (sim::TimePs t = 7 * sim::kPsPerUs; t < cfg.sim_time; t += 13 * sim::kPsPerUs)
    chunked.advance_to(t);
  chunked.finish();
  const auto actual = chunked.report();

  EXPECT_EQ(expected.flows, actual.flows);
  EXPECT_EQ(expected.fully_satisfied, actual.fully_satisfied);
  EXPECT_EQ(expected.satisfied_fraction, actual.satisfied_fraction);
  EXPECT_EQ(expected.direct_fraction, actual.direct_fraction);
  EXPECT_EQ(expected.stale_mispicks, actual.stale_mispicks);
  EXPECT_EQ(expected.peak_utilization, actual.peak_utilization);
}

TEST(FlowSim, MidRunReportSeesPartialTraffic) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.sim_time = 100 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  sim_inst.advance_to(30 * sim::kPsPerUs);
  const auto mid = sim_inst.report();
  EXPECT_LE(sim_inst.now(), 30 * sim::kPsPerUs);
  sim_inst.finish();
  const auto final_report = sim_inst.report();
  EXPECT_GT(final_report.flows, mid.flows);
}

TEST(FlowEngine, OpenReservesAndCloseReleases) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/99);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.gbps = 50.0;
  const auto id = engine.open(spec);
  EXPECT_EQ(engine.live_flows(), 1u);
  EXPECT_GT(engine.fabric_utilization(), 0.0);
  EXPECT_GT(engine.result(id).satisfied(), 0.0);
  engine.close(id);
  EXPECT_EQ(engine.live_flows(), 0u);
  EXPECT_EQ(engine.fabric_utilization(), 0.0);
}

TEST(FlowEngine, DeadFlowIdsAreRejected) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/99);
  FlowSpec spec;
  spec.src = 2;
  spec.dst = 3;
  spec.gbps = 10.0;
  const auto id = engine.open(spec);
  engine.close(id);
  EXPECT_THROW(engine.result(id), std::out_of_range);
  EXPECT_THROW(engine.close(id), std::out_of_range);
  EXPECT_THROW(engine.close(424242), std::out_of_range);
}

TEST(FlowEngine, SpecReturnsTheOpeningSpecUntilClose) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/99);
  const FlowSpec first{.src = 4, .dst = 9, .gbps = 12.5, .duration = 7};
  const FlowSpec second{.src = 9, .dst = 4, .gbps = 30.0};
  const auto a = engine.open(first);
  const auto b = engine.open(second);
  EXPECT_EQ(engine.spec(a).src, 4);
  EXPECT_EQ(engine.spec(a).dst, 9);
  EXPECT_EQ(engine.spec(a).gbps, 12.5);
  EXPECT_EQ(engine.spec(a).duration, 7);
  EXPECT_EQ(engine.spec(b).src, 9);
  EXPECT_EQ(engine.spec(b).gbps, 30.0);
  engine.close(a);
  EXPECT_THROW((void)engine.spec(a), std::out_of_range);
  EXPECT_EQ(engine.spec(b).dst, 4);  // closing one flow leaves the other's record
  engine.close(b);
  EXPECT_THROW((void)engine.spec(b), std::out_of_range);
  EXPECT_THROW((void)engine.spec(424242), std::out_of_range);
}

TEST(FlowEngine, ReportAccumulatesAcrossOpens) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/7);
  FlowSpec spec;
  spec.gbps = 20.0;
  for (int i = 0; i < 8; ++i) {
    spec.src = i;
    spec.dst = i + 10;
    engine.open(spec);
  }
  const auto report = engine.report();
  EXPECT_EQ(report.flows, 8u);
  EXPECT_DOUBLE_EQ(report.offered_gbps_mean, 20.0);
  EXPECT_GT(report.satisfied_fraction, 0.99);
  EXPECT_GT(report.peak_utilization, 0.0);
}

// A demand beyond the fixed-point ledger's range (here from a huge traffic
// scale) is rejected where it is quantized, before anything is reserved,
// instead of overflowing the integer conversion; so is a run-long demand
// total that would overflow.
TEST(FlowEngine, OutOfRangeDemandIsRejectedBeforeReserving) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/3);
  FlowSpec spec;
  spec.src = 4;
  spec.dst = 5;
  for (double gbps : {1e14, -1e14, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    spec.gbps = gbps;
    EXPECT_THROW(engine.open(spec), std::out_of_range) << gbps;
  }
  EXPECT_EQ(engine.live_flows(), 0u);
  EXPECT_EQ(engine.report().flows, 0u);
  EXPECT_EQ(engine.fabric_utilization(), 0.0);

  spec.gbps = 9e9;  // 9e15 quanta, just inside kMaxQuanta
  std::size_t opened = 0;
  EXPECT_THROW(
      for (;; ++opened) engine.open(spec), std::out_of_range);
  EXPECT_EQ(opened, 1024u);  // 1025 x 9e15 quanta overflows the int64 total
  EXPECT_EQ(engine.live_flows(), opened);
}

TEST(FlowSim, HeavyElephantsForceIndirectRouting) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.arrivals_per_us = 1.0;
  cfg.sim_time = 100 * sim::kPsPerUs;
  FlowGenerator elephants = [](sim::Rng& rng) {
    FlowSpec spec;
    spec.src = static_cast<int>(rng.below(350));
    spec.dst = static_cast<int>((spec.src + 1 + rng.below(349)) % 350);
    spec.gbps = 400.0;  // far beyond the 125 Gb/s direct budget
    spec.duration = static_cast<sim::TimePs>(rng.exponential(10.0 * sim::kPsPerUs));
    return spec;
  };
  FlowSimulator sim_inst(fabric, elephants, cfg);
  const auto report = sim_inst.run();
  EXPECT_GT(report.indirect_fraction, 0.3);
  EXPECT_GT(report.satisfied_fraction, 0.95);
}

}  // namespace
}  // namespace photorack::net
