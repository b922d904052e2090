// Multi-rack cluster co-simulation: the pinned contracts from ISSUE 9 —
// a one-rack cluster reproduces RackCosim field for field, coupled runs are
// bit-identical at any worker count (the conservative-window determinism
// contract), spill bookkeeping conserves jobs and bandwidth, and the
// cluster_energy campaign serializes byte-identically at every --jobs level.
#include "cluster/cluster_cosim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "cosim/rack_cosim.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

namespace photorack::cluster {
namespace {

cosim::CosimConfig quick_cosim(double arrivals_per_ms = 4.0) {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = arrivals_per_ms;
  cfg.sim_time = 120 * sim::kPsPerMs;
  cfg.mean_duration = 20 * sim::kPsPerMs;
  return cfg;
}

ClusterReport run_cluster(const ClusterConfig& cluster,
                          const cosim::CosimConfig& cfg) {
  return run_cluster_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                           workloads::UsageModel::cori(), cluster, cfg);
}

// Every inter-rack grant is back on its link: exact, since the ledger is
// integer.
void expect_links_drained(const ClusterCosim& sim, int racks) {
  const InterRackFabric& links = sim.interconnect();
  for (int s = 0; s < racks; ++s)
    for (int d = 0; d < racks; ++d)
      if (s != d) EXPECT_EQ(links.allocated(links.link(s, d)), 0) << s << "->" << d;
}

void expect_tails_identical(const disagg::TailStats& a,
                            const disagg::TailStats& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
}

// Bitwise equality over every field a report carries — the determinism
// contract is "identical", not "close".
void expect_reports_identical(const cosim::CosimReport& a,
                              const cosim::CosimReport& b) {
  EXPECT_EQ(a.jobs.offered, b.jobs.offered);
  EXPECT_EQ(a.jobs.accepted, b.jobs.accepted);
  EXPECT_EQ(a.jobs.mean_cpu_utilization, b.jobs.mean_cpu_utilization);
  EXPECT_EQ(a.jobs.mean_gpu_utilization, b.jobs.mean_gpu_utilization);
  EXPECT_EQ(a.jobs.mean_memory_utilization, b.jobs.mean_memory_utilization);
  EXPECT_EQ(a.jobs.mean_marooned_cpu, b.jobs.mean_marooned_cpu);
  EXPECT_EQ(a.jobs.mean_marooned_memory, b.jobs.mean_marooned_memory);
  expect_tails_identical(a.jobs.wait_ms, b.jobs.wait_ms);
  expect_tails_identical(a.jobs.slowdown, b.jobs.slowdown);
  expect_tails_identical(a.jobs.fct_ms, b.jobs.fct_ms);
  EXPECT_EQ(a.jobs.censored_waiting, b.jobs.censored_waiting);
  EXPECT_EQ(a.jobs.censored_running, b.jobs.censored_running);
  EXPECT_EQ(a.jobs.events.scheduled, b.jobs.events.scheduled);
  EXPECT_EQ(a.jobs.events.dispatched, b.jobs.events.dispatched);
  EXPECT_EQ(a.jobs.events.cancelled, b.jobs.events.cancelled);
  EXPECT_EQ(a.jobs.events.pending_peak, b.jobs.events.pending_peak);
  EXPECT_EQ(a.flows.flows, b.flows.flows);
  EXPECT_EQ(a.flows.fully_satisfied, b.flows.fully_satisfied);
  EXPECT_EQ(a.flows.offered_gbps_mean, b.flows.offered_gbps_mean);
  EXPECT_EQ(a.flows.satisfied_fraction, b.flows.satisfied_fraction);
  EXPECT_EQ(a.flows.direct_fraction, b.flows.direct_fraction);
  EXPECT_EQ(a.flows.indirect_fraction, b.flows.indirect_fraction);
  EXPECT_EQ(a.flows.stale_mispicks, b.flows.stale_mispicks);
  EXPECT_EQ(a.flows.second_hops, b.flows.second_hops);
  EXPECT_EQ(a.flows.mean_intermediates, b.flows.mean_intermediates);
  EXPECT_EQ(a.flows.peak_utilization, b.flows.peak_utilization);
  EXPECT_EQ(a.mean_speed_fraction, b.mean_speed_fraction);
  EXPECT_EQ(a.mean_stretch, b.mean_stretch);
  EXPECT_EQ(a.max_stretch, b.max_stretch);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.photonic_power_w, b.photonic_power_w);
  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.fault.enabled, b.fault.enabled);
  EXPECT_EQ(a.fault.faults, b.fault.faults);
  EXPECT_EQ(a.fault.repairs, b.fault.repairs);
  EXPECT_EQ(a.fault.interrupted, b.fault.interrupted);
  EXPECT_EQ(a.fault.requeued, b.fault.requeued);
  EXPECT_EQ(a.fault.degraded, b.fault.degraded);
  EXPECT_EQ(a.fault.killed, b.fault.killed);
  EXPECT_EQ(a.fault.goodput_jobs, b.fault.goodput_jobs);
  EXPECT_EQ(a.fault.work_lost_ms, b.fault.work_lost_ms);
  EXPECT_EQ(a.fault.availability, b.fault.availability);
  EXPECT_EQ(a.fault.mean_mttr_ms, b.fault.mean_mttr_ms);
  EXPECT_EQ(a.ml.enabled, b.ml.enabled);
  EXPECT_EQ(a.ml.jobs_offered, b.ml.jobs_offered);
  EXPECT_EQ(a.ml.jobs_accepted, b.ml.jobs_accepted);
  EXPECT_EQ(a.ml.jobs_completed, b.ml.jobs_completed);
  EXPECT_EQ(a.ml.steps, b.ml.steps);
  EXPECT_EQ(a.ml.collective_phases, b.ml.collective_phases);
  expect_tails_identical(a.ml.step_ms, b.ml.step_ms);
  expect_tails_identical(a.ml.coll_frac, b.ml.coll_frac);
  expect_tails_identical(a.ml.straggler, b.ml.straggler);
}

// ---------------------------------------------------------------------------
// Inter-rack fabric model.
// ---------------------------------------------------------------------------

TEST(InterRackFabric, ValidatesConstruction) {
  EXPECT_THROW(InterRackFabric(0, 400.0, 200.0, 30.0), std::invalid_argument);
  EXPECT_THROW(InterRackFabric(2, 0.0, 200.0, 30.0), std::invalid_argument);
  EXPECT_THROW(InterRackFabric(2, 400.0, -1.0, 30.0), std::invalid_argument);
  EXPECT_THROW(InterRackFabric(2, 400.0, 200.0, -1.0), std::invalid_argument);
}

TEST(InterRackFabric, LinkIdsRejectSelfAndOutOfRange) {
  InterRackFabric fabric(3, 400.0, 200.0, 30.0);
  EXPECT_THROW((void)fabric.link(0, 0), std::invalid_argument);
  EXPECT_THROW((void)fabric.link(-1, 1), std::invalid_argument);
  EXPECT_THROW((void)fabric.link(0, 3), std::invalid_argument);
  EXPECT_NE(fabric.link(0, 1), fabric.link(1, 0));  // links are directed
}

TEST(InterRackFabric, ReserveGrantsUpToCapacityAndReleaseRestores) {
  InterRackFabric fabric(2, 100.0, 200.0, 30.0);
  const int link = fabric.link(0, 1);
  const auto q = [](double gbps) { return sim::to_quanta(gbps); };
  EXPECT_EQ(fabric.reserve(link, q(60.0), 0), q(60.0));
  EXPECT_EQ(fabric.reserve(link, q(60.0), 0), q(40.0));  // clipped to the residual
  EXPECT_EQ(fabric.reserve(link, q(60.0), 0), 0);        // saturated
  EXPECT_EQ(fabric.allocated(link), q(100.0));
  fabric.release(link, q(100.0), 0);
  EXPECT_EQ(fabric.allocated(link), 0);
  EXPECT_THROW(fabric.release(link, 1, 0), std::logic_error);  // one quantum over
}

TEST(InterRackFabric, UtilizationIsTimeAveragedOverTheRun) {
  InterRackFabric fabric(2, 100.0, 200.0, 30.0);  // two directed links
  const int link = fabric.link(0, 1);
  EXPECT_EQ(fabric.utilization(10), 0.0);
  // Half of one link for the middle half of [0, 40]: 0.5 x 0.5 / 2 links.
  fabric.reserve(link, sim::to_quanta(50.0), 10);
  EXPECT_EQ(fabric.utilization(20), 0.5 * 0.5 / 2);  // still held at t = 20
  fabric.release(link, sim::to_quanta(50.0), 30);
  EXPECT_EQ(fabric.utilization(40), 0.5 * 0.5 / 2);
  EXPECT_EQ(fabric.allocated(link), 0);  // drained, yet the average is not 0
  // Reservations must arrive in time order for the integral to hold.
  EXPECT_THROW(fabric.reserve(link, 1, 29), std::logic_error);
}

TEST(InterRackFabric, PowerIsZeroWhenDarkAndHopNeverDegenerates) {
  InterRackFabric fabric(4, 400.0, 200.0, 30.0);
  EXPECT_EQ(fabric.power_w(false), 0.0);  // rack-scale: uplinks stay dark
  // 4 uplinks x 400 Gb/s x 30 pJ/bit = 48 W.
  EXPECT_NEAR(fabric.power_w(true), 48.0, 1e-9);
  EXPECT_EQ(fabric.hop_latency_ps(), 200 * 1000);
  // A zero-latency hop would give the cluster loop a zero-width window.
  EXPECT_GE(InterRackFabric(2, 400.0, 0.0, 30.0).hop_latency_ps(), 1);
}

// ---------------------------------------------------------------------------
// Cluster <-> rack equivalence and determinism.
// ---------------------------------------------------------------------------

TEST(Cluster, RejectsInvalidConfig) {
  ClusterConfig bad;
  bad.racks = 0;
  EXPECT_THROW(run_cluster(bad, quick_cosim()), std::invalid_argument);
  bad = {};
  bad.workers = -1;
  EXPECT_THROW(run_cluster(bad, quick_cosim()), std::invalid_argument);
}

// A one-rack cluster IS a RackCosim run — the same seed, the same events,
// the same report, field for field — also with the fault and ML paths on.
TEST(Cluster, SingleRackReproducesRackCosimExactly) {
  auto faulty_ml = quick_cosim(6.0);
  faulty_ml.fault.enabled = true;
  faulty_ml.fault.mcm_mtbf_ms = 40.0;
  faulty_ml.fault.node_mtbf_ms = 80.0;
  faulty_ml.ml.enabled = true;
  faulty_ml.ml.mix_fraction = 0.3;
  faulty_ml.ml.gradient_mb = 8.0;
  for (const auto& cfg : {quick_cosim(6.0), faulty_ml}) {
    ClusterConfig one;
    one.racks = 1;
    one.spill = SpillPolicy::kLeast;  // irrelevant with one rack
    const auto cluster = run_cluster(one, cfg);
    const auto solo = cosim::run_rack_cosim(
        {}, disagg::AllocationPolicy::kDisaggregated,
        workloads::UsageModel::cori(), cfg);
    ASSERT_EQ(cluster.racks.size(), 1u);
    expect_reports_identical(cluster.total, solo);
    EXPECT_EQ(cluster.spilled, 0u);
    EXPECT_EQ(cluster.interconnect_power_w, 0.0);
  }
  ASSERT_GT(cosim::run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                                  workloads::UsageModel::cori(), faulty_ml)
                .fault.repairs,
            0u);  // the fault path is actually exercised
}

TEST(Cluster, UncoupledRunIsIndependentOfWorkerCount) {
  const auto cfg = quick_cosim(6.0);
  ClusterConfig a;
  a.racks = 3;
  a.spill = SpillPolicy::kNone;
  ClusterConfig b = a;
  a.workers = 1;
  b.workers = 4;
  const auto ra = run_cluster(a, cfg);
  const auto rb = run_cluster(b, cfg);
  expect_reports_identical(ra.total, rb.total);
  EXPECT_EQ(ra.barriers, 1u);  // no coupling: one window, full parallelism
  EXPECT_EQ(rb.barriers, 1u);
}

// The tentpole contract: with spill-over coupling the racks, the
// conservative-window loop makes the run bit-identical at any worker count.
TEST(Cluster, CoupledRunIsBitIdenticalAtAnyWorkerCount) {
  auto cfg = quick_cosim(8.0);  // overload so spills actually happen
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 4;
  ClusterConfig serial;
  serial.racks = 3;
  serial.spill = SpillPolicy::kLeast;
  ClusterConfig wide = serial;
  serial.workers = 1;
  wide.workers = 4;
  const auto rs = run_cluster(serial, cfg);
  const auto rw = run_cluster(wide, cfg);
  EXPECT_GT(rs.spilled, 0u);  // the coupling is actually exercised
  EXPECT_GT(rs.barriers, 1u);
  EXPECT_EQ(rs.spilled, rw.spilled);
  EXPECT_EQ(rs.spill_failed, rw.spill_failed);
  EXPECT_EQ(rs.barriers, rw.barriers);
  EXPECT_EQ(rs.interconnect_energy_j, rw.interconnect_energy_j);
  expect_reports_identical(rs.total, rw.total);
  ASSERT_EQ(rs.racks.size(), rw.racks.size());
  for (std::size_t r = 0; r < rs.racks.size(); ++r)
    expect_reports_identical(rs.racks[r], rw.racks[r]);
}

TEST(Cluster, SpillBookkeepingConservesJobsAndBandwidth) {
  auto cfg = quick_cosim(8.0);
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 4;
  ClusterConfig cluster;
  cluster.racks = 3;
  cluster.spill = SpillPolicy::kNext;
  ClusterCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                   workloads::UsageModel::cori(), cluster, cfg);
  sim.run();
  const auto report = sim.report();
  EXPECT_GT(report.spilled, 0u);
  EXPECT_LE(report.spill_failed, report.spilled);
  // Offers are recorded at the origin rack only, acceptance where the job
  // actually ran — totals are exact sums either way.
  std::uint64_t offered = 0, accepted = 0;
  for (const auto& rack : report.racks) {
    offered += rack.jobs.offered;
    accepted += rack.jobs.accepted;
  }
  EXPECT_EQ(report.total.jobs.offered, offered);
  EXPECT_EQ(report.total.jobs.accepted, accepted);
  // Spilled jobs held inter-rack bandwidth for part of the run, and gave all
  // of it back once drained -- also those that waited in the target rack's
  // backlog while holding their grant -- while the always-on uplinks burned
  // power the whole run (the cluster-scale energy tax).
  EXPECT_GT(report.interconnect_utilization, 0.0);
  EXPECT_LE(report.interconnect_utilization, 1.0);
  expect_links_drained(sim, cluster.racks);
  EXPECT_GT(report.interconnect_power_w, 0.0);
  EXPECT_GT(report.interconnect_energy_j, 0.0);
  EXPECT_GT(report.total.energy_joules,
            std::accumulate(report.racks.begin(), report.racks.end(), 0.0,
                            [](double s, const cosim::CosimReport& r) {
                              return s + r.energy_joules;
                            }));  // total folds the interconnect in
}

// interconnect_utilization is a time average over the run, not an
// end-of-run snapshot (which always read 0 after a full drain): a coupled
// run that spills reads strictly inside (0, 1], a rack-scale run exactly 0,
// and every inter-rack grant is back on its link once the cluster drains.
TEST(Cluster, InterconnectUtilizationIsATimeAverageAndLinksDrainExactly) {
  ClusterConfig cluster;
  cluster.racks = 3;
  cluster.spill = SpillPolicy::kLeast;
  ClusterCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                   workloads::UsageModel::cori(), cluster, quick_cosim(8.0));
  sim.run();
  const auto report = sim.report();
  ASSERT_GT(report.spilled, 0u);
  EXPECT_GT(report.interconnect_utilization, 0.0);
  EXPECT_LE(report.interconnect_utilization, 1.0);
  expect_links_drained(sim, cluster.racks);

  cluster.spill = SpillPolicy::kNone;
  EXPECT_EQ(run_cluster(cluster, quick_cosim(8.0)).interconnect_utilization, 0.0);
}

// Cluster ratios are pooled over racks — the ratio of the summed raw
// accumulators, as one stream that saw every rack's flows and repairs would
// report — not flow-weighted or unweighted means of per-rack ratios.
TEST(Cluster, TotalsArePooledOverRacks) {
  ClusterConfig coupled;
  coupled.racks = 4;
  coupled.spill = SpillPolicy::kLeast;
  ClusterCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                   workloads::UsageModel::cori(), coupled, quick_cosim(8.0));
  sim.run();
  const auto report = sim.report();
  sim::Quanta requested = 0, direct = 0, indirect = 0;
  for (int r = 0; r < sim.racks(); ++r) {
    const net::FlowTally flows = sim.rack(r).tally().flows;
    requested += flows.requested;
    direct += flows.direct;
    indirect += flows.indirect;
  }
  EXPECT_EQ(report.total.flows.satisfied_fraction,
            sim::ratio(direct + indirect, requested, 1.0));
  EXPECT_EQ(report.total.flows.indirect_fraction,
            sim::ratio(indirect, direct + indirect));

  // Sparse faults: one repair in the whole cluster.  Racks that repaired
  // nothing have no MTTR to average in.
  auto sparse = quick_cosim(4.0);
  sparse.sim_time = 40 * sim::kPsPerMs;
  sparse.fault.enabled = true;
  sparse.fault.mcm_mtbf_ms = 4000.0;
  sparse.fault.node_mtbf_ms = 8000.0;
  ClusterConfig islands;
  islands.racks = 4;
  const auto faulty = run_cluster(islands, sparse);
  double repair_ms = 0.0;
  std::uint64_t repairs = 0, idle_racks = 0;
  for (const auto& rack : faulty.racks) {
    repair_ms += rack.fault.mean_mttr_ms * static_cast<double>(rack.fault.repairs);
    repairs += rack.fault.repairs;
    idle_racks += rack.fault.repairs == 0;
  }
  ASSERT_GT(repairs, 0u);
  ASSERT_GT(idle_racks, 0u);
  EXPECT_EQ(faulty.total.fault.repairs, repairs);
  EXPECT_GT(faulty.total.fault.mean_mttr_ms, 0.0);
  EXPECT_NEAR(faulty.total.fault.mean_mttr_ms, repair_ms / static_cast<double>(repairs),
              1e-12 * repair_ms);
}

// The profile of a cluster run covers every rack: one cosim.arrival hit per
// offered job, whichever worker thread ran which rack.
TEST(Cluster, ProfileCoversEveryRack) {
  auto cfg = quick_cosim(8.0);
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 4;
  for (const int workers : {1, 4}) {
    ClusterConfig cluster;
    cluster.racks = 3;
    cluster.spill = SpillPolicy::kLeast;
    cluster.workers = workers;
    obs::Profiler profiler;
    const auto report = run_cluster_cosim(
        {}, disagg::AllocationPolicy::kDisaggregated, workloads::UsageModel::cori(),
        cluster, cfg, obs::Obs{nullptr, nullptr, &profiler});
    std::uint64_t arrivals = 0;
    for (const auto& e : profiler.entries())
      if (e.name == "cosim.arrival") arrivals = e.count;
    EXPECT_GT(report.spilled, 0u) << workers;
    EXPECT_EQ(arrivals, report.total.jobs.offered) << workers;
  }
}

TEST(Cluster, RackScaleKeepsUplinksDark) {
  const auto report = run_cluster(ClusterConfig{}, quick_cosim(6.0));
  EXPECT_EQ(report.spilled, 0u);
  EXPECT_EQ(report.interconnect_power_w, 0.0);
  EXPECT_EQ(report.interconnect_energy_j, 0.0);
}

TEST(Cluster, SpillPolicyCodecRoundTrips) {
  const auto& codec = spill_policy_codec();
  EXPECT_EQ(codec.parse("least"), SpillPolicy::kLeast);
  EXPECT_EQ(codec.name(SpillPolicy::kNext), "next");
  EXPECT_THROW(codec.parse("ring"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Campaign determinism: cluster_energy serializes byte-identically at every
// --jobs level (the acceptance criterion the CI cluster smoke step re-checks
// end to end).
// ---------------------------------------------------------------------------

std::pair<std::string, std::string> serialize(const scenario::Campaign& campaign,
                                              const scenario::SweepGrid& grid,
                                              std::size_t jobs) {
  std::ostringstream csv_os, jsonl_os;
  scenario::CsvSink csv(csv_os);
  scenario::JsonlSink jsonl(jsonl_os);
  scenario::SweepRunner(scenario::SweepOptions{.jobs = jobs, .base_seed = 0})
      .run(campaign, grid, {&csv, &jsonl});
  return {csv_os.str(), jsonl_os.str()};
}

TEST(ClusterCampaigns, EnergyIsByteIdenticalAcrossJobs) {
  const auto& campaign = scenario::campaign_by_name("cluster_energy");
  auto grid = campaign.default_grid();
  grid.set("cluster.racks", {"2"});
  grid.set("cosim.arrivals_per_ms", {"8"});
  grid.set("cosim.horizon_ms", {"60"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

}  // namespace
}  // namespace photorack::cluster
