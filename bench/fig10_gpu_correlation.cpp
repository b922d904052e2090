// Reproduces Fig 10: GPU slowdown at +35 ns correlates with (i) the LLC
// (L2) miss rate (r ~ 0.87) and (ii) HBM transactions per instruction
// (r ~ 0.79), but not with the memory-instruction fraction.  Slowdown and
// L2 miss rate come from the scenario engine's "fig9" campaign at
// gpusim.extra_hbm_ns=35; the two intensity correlates are not campaign
// columns, so they come from gpusim::run_app directly.
#include <iostream>
#include <vector>

#include "core/report.hpp"
#include "gpusim/gpu_runner.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/thread_pool.hpp"
#include "workloads/gpu_profiles.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 10: GPU slowdown correlates",
                     "Fig 10 (Section VI-B3)");

  const auto& campaign = scenario::campaign_by_name("fig9");
  scenario::SweepGrid grid = campaign.default_grid();
  grid.set("gpusim.extra_hbm_ns", {"35"});
  const auto res = scenario::SweepRunner().run(campaign, grid);

  const auto& apps = workloads::gpu_apps();
  gpusim::GpuConfig gpu;
  gpu.extra_hbm_ns = 35.0;
  std::vector<gpusim::AppResult> direct(apps.size());
  sim::parallel_for(apps.size(),
                    [&](std::size_t i) { direct[i] = gpusim::run_app(apps[i], gpu); });

  std::vector<double> slow, missrate, txn_per_instr, mem_frac;
  sim::Table table({"App", "Slowdown +35ns", "L2 missrate", "HBM txn/instr",
                    "mem instr frac"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& row = res.find({{"app", apps[i].name}});
    slow.push_back(res.num(row, "slowdown"));
    missrate.push_back(res.num(row, "l2_miss_rate"));
    txn_per_instr.push_back(direct[i].hbm_txn_per_instr);
    mem_frac.push_back(direct[i].mem_instr_fraction);
    table.add_row({apps[i].name, sim::fmt_pct(slow.back()), sim::fmt_pct(missrate.back()),
                   sim::fmt_fixed(txn_per_instr.back(), 3), sim::fmt_pct(mem_frac.back())});
  }
  table.print(std::cout);

  const double r_miss = sim::pearson(slow, missrate);
  const double r_txn = sim::pearson(slow, txn_per_instr);
  const double r_memfrac = sim::pearson(slow, mem_frac);

  std::cout << "\npaper-vs-measured Pearson correlations:\n";
  core::check_line(std::cout, "slowdown vs LLC miss rate", 0.87, r_miss);
  core::check_line(std::cout, "slowdown vs HBM txn/instr", 0.79, r_txn);
  std::cout << "slowdown vs mem-instr fraction (paper: no significant "
               "correlation): r = "
            << r_memfrac << '\n';
  return 0;
}
