// Reproduces Fig 12: speedup of intra-rack disaggregation built on
// photonics (+35 ns to memory) over the same rack built on modern
// electronic switches (+85 ns; for GPUs the electronic fabric additionally
// cannot carry native HBM bandwidth — see DESIGN.md).  Thin wrapper over
// the scenario engine's "fig6" campaign (bench axis cut to the §VI-D set)
// at cpusim.dram.extra_ns={35,85} and "fig9" campaign at
// gpusim.extra_hbm_ns={35,85} x gpusim.hbm_bandwidth_derate={1,0.62}.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/gpu_profiles.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 12: photonic vs electronic disaggregation",
                     "Fig 12 (Section VI-D)");

  // Added LLC<->memory latency of each fabric, as campaign axis values.
  const std::string photonic_ns = "35";
  const std::string electronic_ns = "85";
  // §VI-D: electronic lanes cannot carry native HBM bandwidth.
  const std::string electronic_gpu_derate = "0.62";

  // §VI-D restriction: count PARSEC only at "medium" and NAS only at class
  // B to avoid counting those benchmarks three times.
  std::vector<std::string> cpu_benches;
  for (const auto& bench : workloads::cpu_benchmarks()) {
    if (bench.suite == "PARSEC" && bench.input != "medium") continue;
    if (bench.suite == "NAS" && bench.input != "B") continue;
    cpu_benches.push_back(bench.full_name());
  }

  const auto& fig6 = scenario::campaign_by_name("fig6");
  scenario::SweepGrid cpu_grid = fig6.default_grid();
  cpu_grid.set("bench", cpu_benches);
  cpu_grid.set("cpusim.dram.extra_ns", {photonic_ns, electronic_ns});
  const auto cpu = scenario::SweepRunner().run(fig6, cpu_grid);

  const auto& fig9 = scenario::campaign_by_name("fig9");
  scenario::SweepGrid gpu_grid = fig9.default_grid();
  gpu_grid.set("gpusim.extra_hbm_ns", {photonic_ns, electronic_ns});
  gpu_grid.set("gpusim.hbm_bandwidth_derate", {"1", electronic_gpu_derate});
  const auto gpu = scenario::SweepRunner().run(fig9, gpu_grid);

  // Speedup = electronic time / photonic time - 1.  Each filter selects one
  // row per bench (app), in grid order.
  using Filter = scenario::SweepResult::Filter;
  const auto speedups = [](const scenario::SweepResult& res, const char* time_col,
                           const Filter& photonic, const Filter& electronic) {
    const auto tp = res.values(time_col, photonic);
    const auto te = res.values(time_col, electronic);
    std::vector<double> out;
    for (std::size_t i = 0; i < tp.size(); ++i) out.push_back(te[i] / tp[i] - 1.0);
    return out;
  };
  const auto cpu_speedups = [&](const char* core_kind) {
    return speedups(cpu, "time_ns", {{"core", core_kind}, {"extra_ns", photonic_ns}},
                    {{"core", core_kind}, {"extra_ns", electronic_ns}});
  };
  const auto cpu_inorder = cpu_speedups("inorder");
  const auto cpu_ooo = cpu_speedups("ooo");
  const auto gpu_speedups =
      speedups(gpu, "time_us", {{"extra_ns", photonic_ns}, {"derate", "1"}},
               {{"extra_ns", electronic_ns}, {"derate", electronic_gpu_derate}});
  const auto& apps = workloads::gpu_apps();

  std::cout << "CPU speedups (PARSEC counted at medium, NAS at class B):\n";
  sim::Table ct({"Benchmark", "in-order speedup"});
  for (std::size_t i = 0; i < cpu_benches.size(); ++i)
    ct.add_row({cpu_benches[i], sim::fmt_pct(cpu_inorder[i])});
  ct.print(std::cout);

  std::cout << "\nGPU speedups:\n";
  sim::Table gt({"App", "speedup"});
  for (std::size_t i = 0; i < apps.size(); ++i)
    gt.add_row({apps[i].name, sim::fmt_pct(gpu_speedups[i])});
  gt.print(std::cout);

  std::cout << "\npaper-vs-measured (Fig 12):\n";
  core::check_line(std::cout, "CPU in-order avg speedup", 0.09, sim::mean_of(cpu_inorder),
                   1.5);
  core::check_line(std::cout, "CPU in-order max speedup (NW runs hotter here)", 0.41,
                   sim::max_of(cpu_inorder), 0.8);
  core::check_line(std::cout, "CPU OOO avg speedup", 0.15, sim::mean_of(cpu_ooo), 1.5);
  core::check_line(std::cout, "CPU OOO max speedup (NW runs hotter here)", 0.45,
                   sim::max_of(cpu_ooo), 1.0);
  // The paper reports average == maximum == 61% for GPUs, which only a
  // uniform full-fleet bandwidth throttle could produce; our per-app
  // roofline spreads the speedups instead (EXPERIMENTS.md note 5).
  core::check_line(std::cout, "GPU avg speedup", 0.61, sim::mean_of(gpu_speedups), 0.85);
  core::check_line(std::cout, "GPU max speedup", 0.61, sim::max_of(gpu_speedups), 1.0);
  const auto wins = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(), [](double s) { return s >= -1e-9; });
  };
  std::cout << "photonic wins on every benchmark: "
            << (wins(cpu_inorder) && wins(gpu_speedups) ? "yes" : "NO") << '\n';
  return 0;
}
