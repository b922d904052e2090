// Reproduces Fig 11: latency tolerance of in-order CPUs, OOO CPUs and GPUs
// on the Rodinia benchmarks that run on both (GPUs tolerate +35 ns best,
// max ~12%).  Thin wrapper over the scenario engine's "fig6" campaign
// (bench axis cut to the shared Rodinia set) and "fig9" campaign at
// gpusim.extra_hbm_ns=35.
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "workloads/cpu_profiles.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 11: CPU vs GPU latency tolerance (Rodinia)",
                     "Fig 11 (Section VI-B4)");

  const auto shared = workloads::rodinia_cpu_gpu_intersection();
  std::vector<std::string> cpu_benches;
  for (const auto& name : shared) cpu_benches.push_back("Rodinia/" + name + "/default");

  const auto& fig6 = scenario::campaign_by_name("fig6");
  scenario::SweepGrid cpu_grid = fig6.default_grid();
  cpu_grid.set("bench", cpu_benches);
  const auto cpu = scenario::SweepRunner().run(fig6, cpu_grid);

  const auto& fig9 = scenario::campaign_by_name("fig9");
  scenario::SweepGrid gpu_grid = fig9.default_grid();
  gpu_grid.set("gpusim.extra_hbm_ns", {"35"});
  const auto gpu = scenario::SweepRunner().run(fig9, gpu_grid);

  std::vector<double> gpus;
  sim::Table table({"Benchmark", "in-order CPU", "OOO CPU", "GPU"});
  for (std::size_t i = 0; i < shared.size(); ++i) {
    const auto cpu_slowdown = [&](const char* core_kind) {
      return cpu.num(cpu.find({{"bench", cpu_benches[i]}, {"core", core_kind}}), "slowdown");
    };
    gpus.push_back(gpu.num(gpu.find({{"app", shared[i]}}), "slowdown"));
    table.add_row({shared[i], sim::fmt_pct(cpu_slowdown("inorder")),
                   sim::fmt_pct(cpu_slowdown("ooo")), sim::fmt_pct(gpus.back())});
  }
  table.print(std::cout);

  std::cout << "\npaper-vs-measured:\n";
  core::check_line(std::cout, "max GPU slowdown on shared Rodinia set", 0.12,
                   sim::max_of(gpus));
  std::cout << "shape check: every GPU slowdown should sit well below the "
               "CPU slowdowns for memory-bound benchmarks (nw, bfs).\n";
  return 0;
}
