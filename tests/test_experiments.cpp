// Integration/regression tests pinning the reproduction's headline shapes on
// the fig6/fig9 campaigns — the same sweeps the Fig 6-12 and §VI-E bench
// binaries wrap.  These run reduced instruction counts to stay fast; the
// bench binaries run the full configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "workloads/cpu_profiles.hpp"

namespace photorack::scenario {
namespace {

using Filter = SweepResult::Filter;

/// One shared reduced-size CPU sweep and one GPU sweep for all tests here.
class ExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Campaign& fig6 = campaign_by_name("fig6");
    SweepGrid cpu_grid = fig6.default_grid();
    cpu_grid.set("cpusim.dram.extra_ns", {"0", "25", "35", "85"});
    cpu_grid.set("cpusim.warmup", {"300000"});
    cpu_grid.set("cpusim.measured", {"600000"});
    cpu_ = new SweepResult(SweepRunner().run(fig6, cpu_grid));

    const Campaign& fig9 = campaign_by_name("fig9");
    SweepGrid gpu_grid = fig9.default_grid();
    gpu_grid.set("gpusim.extra_hbm_ns", {"35", "85"});
    gpu_grid.set("gpusim.hbm_bandwidth_derate", {"1", "0.62"});
    gpu_ = new SweepResult(SweepRunner().run(fig9, gpu_grid));
  }
  static void TearDownTestSuite() {
    delete cpu_;
    delete gpu_;
    cpu_ = nullptr;
    gpu_ = nullptr;
  }

  static double cpu_slowdown(const std::string& bench, const char* core) {
    return cpu_->num(cpu_->find({{"bench", bench}, {"core", core}, {"extra_ns", "35"}}),
                     "slowdown");
  }
  /// Fig 12 speedups, electronic time / photonic time - 1: one per row the
  /// `photonic` filter selects, paired in grid order with `electronic`.
  static std::vector<double> speedups(const SweepResult& res, const char* time_col,
                                      const Filter& photonic, const Filter& electronic) {
    const auto tp = res.values(time_col, photonic);
    const auto te = res.values(time_col, electronic);
    EXPECT_EQ(tp.size(), te.size());
    std::vector<double> out;
    for (std::size_t i = 0; i < tp.size(); ++i) out.push_back(te[i] / tp[i] - 1.0);
    return out;
  }
  static std::vector<double> gpu_speedups(const char* electronic_derate) {
    return speedups(*gpu_, "time_us", {{"extra_ns", "35"}, {"derate", "1"}},
                    {{"extra_ns", "85"}, {"derate", electronic_derate}});
  }

  static SweepResult* cpu_;
  static SweepResult* gpu_;
};

SweepResult* ExperimentsTest::cpu_ = nullptr;
SweepResult* ExperimentsTest::gpu_ = nullptr;

TEST_F(ExperimentsTest, SweepCoversFullMatrix) {
  // 61 benchmarks x 2 cores x 4 latencies.
  EXPECT_EQ(cpu_->rows.size(), 61u * 2 * 4);
}

TEST_F(ExperimentsTest, BaselinesHaveZeroSlowdown) {
  for (const double s : cpu_->values("slowdown", {{"extra_ns", "0"}}))
    EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST_F(ExperimentsTest, SlowdownsAreNonNegative) {
  for (const auto& row : cpu_->rows)
    EXPECT_GE(cpu_->num(row, "slowdown"), -1e-9) << cpu_->cell(row, "bench");
}

TEST_F(ExperimentsTest, OverallAveragesInPaperBand) {
  // Paper: 15% in-order, 22% OOO.  Allow a generous band — the shape
  // matters, not the third digit.
  const double io = cpu_->mean("slowdown", {{"core", "inorder"}, {"extra_ns", "35"}});
  const double ooo = cpu_->mean("slowdown", {{"core", "ooo"}, {"extra_ns", "35"}});
  EXPECT_GT(io, 0.07);
  EXPECT_LT(io, 0.25);
  EXPECT_GT(ooo, 0.10);
  EXPECT_LT(ooo, 0.35);
  EXPECT_GT(ooo, io);  // OOO suffers more in relative terms
}

TEST_F(ExperimentsTest, NasIsNegligiblyAffected) {
  EXPECT_LT(
      cpu_->mean("slowdown", {{"suite", "NAS"}, {"core", "inorder"}, {"extra_ns", "35"}}),
      0.05);
}

TEST_F(ExperimentsTest, NwIsTheWorstCpuBenchmark) {
  const double nw = cpu_slowdown("Rodinia/nw/default", "inorder");
  EXPECT_GT(nw, 0.6);
  for (const auto* row : cpu_->where({{"core", "inorder"}, {"extra_ns", "35"}}))
    EXPECT_LE(cpu_->num(*row, "slowdown"), nw + 1e-9) << cpu_->cell(*row, "bench");
}

TEST_F(ExperimentsTest, StreamclusterInputSizeStory) {
  const auto& small = cpu_->find(
      {{"bench", "PARSEC/streamcluster/small"}, {"core", "inorder"}, {"extra_ns", "35"}});
  const auto& large = cpu_->find(
      {{"bench", "PARSEC/streamcluster/large"}, {"core", "inorder"}, {"extra_ns", "35"}});
  EXPECT_LT(cpu_->num(small, "llc_miss_rate"), 0.05);
  EXPECT_GT(cpu_->num(large, "llc_miss_rate"), 0.60);
  EXPECT_LT(cpu_->num(small, "slowdown"), 0.05);
  EXPECT_GT(cpu_->num(large, "slowdown"), 0.40);
}

TEST_F(ExperimentsTest, MissRateCorrelationIsStrong) {
  const auto pearson = [](const Filter& filter) {
    return sim::pearson(cpu_->values("slowdown", filter),
                        cpu_->values("llc_miss_rate", filter));
  };
  EXPECT_GT(pearson({{"suite", "PARSEC"},
                     {"input", "large"},
                     {"core", "inorder"},
                     {"extra_ns", "35"}}),
            0.6);
  EXPECT_GT(pearson({{"suite", "Rodinia"}, {"core", "inorder"}, {"extra_ns", "35"}}), 0.6);
}

TEST_F(ExperimentsTest, LatencySensitivityIsMonotone) {
  for (const char* core : {"inorder", "ooo"}) {
    const double s25 = cpu_->mean("slowdown", {{"core", core}, {"extra_ns", "25"}});
    const double s35 = cpu_->mean("slowdown", {{"core", core}, {"extra_ns", "35"}});
    EXPECT_LT(s25, s35);
    EXPECT_NEAR(s25 / s35, 25.0 / 35.0, 0.25);  // roughly proportional
  }
}

TEST_F(ExperimentsTest, GpuAverageNearPaper) {
  const Filter photonic = {{"extra_ns", "35"}, {"derate", "1"}};
  const double avg = gpu_->mean("slowdown", photonic);
  EXPECT_GT(avg, 0.02);
  EXPECT_LT(avg, 0.10);  // paper: 5.35%
  EXPECT_LT(gpu_->max("slowdown", photonic), 0.15);
}

TEST_F(ExperimentsTest, GpusTolerateLatencyBetterThanCpus) {
  const auto shared = workloads::rodinia_cpu_gpu_intersection();
  ASSERT_FALSE(shared.empty());
  double worst_gpu = 0, worst_cpu = 0;
  for (const auto& name : shared) {
    worst_gpu = std::max(
        worst_gpu,
        gpu_->num(gpu_->find({{"app", name}, {"extra_ns", "35"}, {"derate", "1"}}),
                  "slowdown"));
    worst_cpu = std::max(worst_cpu, cpu_slowdown("Rodinia/" + name + "/default", "inorder"));
  }
  EXPECT_LT(worst_gpu, worst_cpu);
}

TEST_F(ExperimentsTest, PhotonicBeatsElectronicEverywhere) {
  for (const char* core : {"inorder", "ooo"}) {
    const auto cpu = speedups(*cpu_, "time_ns", {{"core", core}, {"extra_ns", "35"}},
                              {{"core", core}, {"extra_ns", "85"}});
    ASSERT_EQ(cpu.size(), 61u);
    for (const double s : cpu) EXPECT_GE(s, -1e-9) << core;
    EXPECT_GT(sim::mean_of(cpu), 0.0) << core;
  }
  const auto gpu = gpu_speedups("0.62");
  for (const double s : gpu) EXPECT_GE(s, -1e-9);
  EXPECT_GT(sim::mean_of(gpu), 0.0);
}

TEST_F(ExperimentsTest, ElectronicGpuComparisonReflectsBandwidthDerate) {
  EXPECT_GT(sim::mean_of(gpu_speedups("0.62")), sim::mean_of(gpu_speedups("1")));
}

TEST_F(ExperimentsTest, FindThrowsUnlessExactlyOneRowMatches) {
  const Filter nw = {{"bench", "Rodinia/nw/default"}, {"core", "inorder"}, {"extra_ns", "35"}};
  EXPECT_NO_THROW(cpu_->find(nw));
  // Zero matches: unknown benchmark / app.
  EXPECT_THROW(
      cpu_->find({{"bench", "PARSEC/nope/large"}, {"core", "inorder"}, {"extra_ns", "35"}}),
      std::out_of_range);
  EXPECT_THROW(gpu_->find({{"app", "nope"}, {"extra_ns", "35"}, {"derate", "1"}}),
               std::out_of_range);
  // More than one match: an under-specified filter spans every latency point.
  EXPECT_THROW(cpu_->find({nw[0], nw[1]}), std::out_of_range);
  EXPECT_THROW(gpu_->find({{"app", "nw"}}), std::out_of_range);
}

}  // namespace
}  // namespace photorack::scenario
