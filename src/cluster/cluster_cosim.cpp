#include "cluster/cluster_cosim.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace photorack::cluster {

const config::EnumCodec<SpillPolicy>& spill_policy_codec() {
  static const config::EnumCodec<SpillPolicy> codec(
      "spill policy", {{"none", SpillPolicy::kNone},
                       {"next", SpillPolicy::kNext},
                       {"least", SpillPolicy::kLeast}});
  return codec;
}

namespace {

ClusterConfig validated(ClusterConfig cfg) {
  if (cfg.racks < 1)
    throw std::invalid_argument("ClusterCosim: need >= 1 rack");
  if (cfg.workers < 0)
    throw std::invalid_argument("ClusterCosim: workers must be >= 0");
  // Link rate / latency / energy bounds are enforced by InterRackFabric.
  return cfg;
}

std::size_t pool_size(const ClusterConfig& cfg) {
  if (cfg.workers > 0) return static_cast<std::size_t>(cfg.workers);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(static_cast<std::size_t>(cfg.racks), hw);
}

}  // namespace

ClusterCosim::ClusterCosim(const rack::RackConfig& rack,
                           disagg::AllocationPolicy policy,
                           const workloads::UsageModel& usage,
                           ClusterConfig cluster, cosim::CosimConfig cfg,
                           obs::Obs obs)
    : cfg_(validated(cluster)),
      profiler_(obs.profiler),
      fabric_(cfg_.racks, cfg_.interconnect_gbps.value, cfg_.hop_ns,
              cfg_.interconnect_pj_per_bit),
      pool_(pool_size(cfg_)) {
  racks_.reserve(static_cast<std::size_t>(cfg_.racks));
  spill_out_.resize(static_cast<std::size_t>(cfg_.racks));
  close_out_.resize(static_cast<std::size_t>(cfg_.racks));
  // Rack seed streams: rack 0 runs the base seed VERBATIM — a one-rack
  // cluster reproduces a standalone RackCosim report field for field.  Racks
  // r > 0 derive their seed under child stream 5 of the base RNG, a stream
  // id no rack-local consumer uses (1 = router, 2 = arrivals, 3 = fault
  // timeline, 16+k = per-job plans), so rack streams can never collide with
  // in-rack draws.
  const sim::Rng rack_root = sim::Rng(cfg.seed).child(5);
  // Each rack profiles into its own Profiler (one writer per thread), merged
  // into the caller's after run().  Trace and metrics sinks take one writer,
  // so they attach to rack 0, whose stream matches a standalone run.
  if (profiler_) rack_profilers_.resize(static_cast<std::size_t>(cfg_.racks));
  for (int r = 0; r < cfg_.racks; ++r) {
    cosim::CosimConfig rack_cfg = cfg;
    if (r > 0) rack_cfg.seed = rack_root.child(static_cast<std::uint64_t>(r))();
    obs::Obs rack_obs = r == 0 ? obs : obs::Obs{};
    rack_obs.profiler =
        profiler_ ? &rack_profilers_[static_cast<std::size_t>(r)] : nullptr;
    racks_.push_back(std::make_unique<cosim::RackCosim>(
        rack, policy, usage, rack_cfg, rack_obs));
  }
  if (!coupled()) return;
  // Handlers run on rack worker threads inside a window: they only append
  // to that rack's own outbox.  The coordinator drains outboxes strictly
  // after wait_idle(), which orders the accesses.
  for (int r = 0; r < cfg_.racks; ++r) {
    cosim::RackCosim* rc = racks_[static_cast<std::size_t>(r)].get();
    rc->set_spill_handler(
        [this, r](const cosim::RackCosim::JobPlan& plan, sim::TimePs at) {
          spill_out_[static_cast<std::size_t>(r)].push_back(
              SpillMsg{at, r, plan, at});
          return true;
        });
    rc->set_remote_close_handler(
        [this, r](int link, sim::Quanta bw, sim::TimePs at, bool placed) {
          close_out_[static_cast<std::size_t>(r)].push_back(
              CloseMsg{at, r, link, bw, placed});
        });
  }
}

void ClusterCosim::advance_all(sim::TimePs barrier) {
  // Only racks with events inside the window have anything to do; a lone
  // active rack runs inline — same results (rack domains are independent
  // within a window), no pool round-trip.
  std::vector<cosim::RackCosim*> active;
  for (auto& r : racks_)
    if (r->next_event_time() < barrier) active.push_back(r.get());
  if (active.size() == 1) {
    active.front()->advance_to(barrier);
    return;
  }
  for (cosim::RackCosim* r : active)
    pool_.submit([r, barrier]() { r->advance_to(barrier); });
  pool_.wait_idle();
}

int ClusterCosim::pick_target(int origin) const {
  const int n = static_cast<int>(racks_.size());
  if (cfg_.spill == SpillPolicy::kNext) return (origin + 1) % n;
  // kLeast: the rack with the lowest combined CPU+memory occupancy right
  // now (reads are quiescent between windows).  Ties break to the lowest
  // rack id — deterministic.
  int best = -1;
  double best_load = 0.0;
  for (int r = 0; r < n; ++r) {
    if (r == origin) continue;
    const auto& pools = racks_[static_cast<std::size_t>(r)]->allocator().pools();
    const double load = pools.cpu_utilization() + pools.memory_utilization();
    if (best < 0 || load < best_load) {
      best = r;
      best_load = load;
    }
  }
  return best;
}

void ClusterCosim::exchange() {
  // Merge every outbox into one stream ordered by (time, origin rack, kind,
  // record order) — a total order over cross-rack effects that does not
  // depend on which thread ran which rack, hence bit-identical results at
  // any worker count.  Closes sort before spills at the same instant so
  // returned capacity is visible to a simultaneous spill's reservation.
  struct Ref {
    sim::TimePs at;
    int origin;
    int kind;  // 0 = close, 1 = spill
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (int r = 0; r < static_cast<int>(racks_.size()); ++r) {
    const auto ur = static_cast<std::size_t>(r);
    for (std::size_t i = 0; i < close_out_[ur].size(); ++i)
      order.push_back(Ref{close_out_[ur][i].at, r, 0, i});
    for (std::size_t i = 0; i < spill_out_[ur].size(); ++i)
      order.push_back(Ref{spill_out_[ur][i].at, r, 1, i});
  }
  if (order.empty()) return;
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.origin != b.origin) return a.origin < b.origin;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.idx < b.idx;
  });
  const sim::TimePs hop = fabric_.hop_latency_ps();
  for (const Ref& ref : order) {
    const auto ur = static_cast<std::size_t>(ref.origin);
    if (ref.kind == 0) {
      const CloseMsg& msg = close_out_[ur][ref.idx];
      fabric_.release(msg.link, msg.bw, msg.at);
      if (!msg.placed) ++spill_failed_;
    } else {
      SpillMsg& msg = spill_out_[ur][ref.idx];
      const int target = pick_target(msg.origin);
      const int link = fabric_.link(msg.origin, target);
      double requested_gbps = 0.0;
      for (const auto& flow : msg.plan.flows) requested_gbps += flow.gbps;
      const sim::Quanta requested = sim::to_quanta(requested_gbps);
      const sim::Quanta granted = fabric_.reserve(link, requested, msg.at);
      msg.plan.remote_link = link;
      msg.plan.remote_bw = granted;
      // The grant fraction becomes the job's speed ceiling at the target: a
      // half-granted uplink runs the job at half speed (clamped to the
      // rack's min_speed floor at placement).
      msg.plan.remote_speed_cap = sim::ratio(granted, requested, 1.0);
      racks_[static_cast<std::size_t>(target)]->inject_remote_job(
          std::move(msg.plan), msg.at + hop, msg.arrived);
      ++spilled_;
    }
  }
  for (auto& box : spill_out_) box.clear();
  for (auto& box : close_out_) box.clear();
}

void ClusterCosim::run() {
  if (ran_) return;
  ran_ = true;
  // Uncoupled racks cannot affect each other: their window reaches the end
  // of time, so the loop collapses to one full-parallel drain.
  const sim::TimePs hop = coupled() ? fabric_.hop_latency_ps() : INT64_MAX;
  for (;;) {
    sim::TimePs t_min = INT64_MAX;
    for (auto& r : racks_) t_min = std::min(t_min, r->next_event_time());
    // Outboxes are always drained at the bottom of the previous window, so
    // an empty cluster-wide event horizon means fully done.
    if (t_min == INT64_MAX) break;
    const sim::TimePs barrier =
        t_min > INT64_MAX - hop ? INT64_MAX : t_min + hop;
    advance_all(barrier);
    ++barriers_;
    exchange();
  }
  for (const obs::Profiler& p : rack_profilers_) profiler_->merge(p);
}

ClusterReport ClusterCosim::report() const {
  ClusterReport out;
  out.spilled = spilled_;
  out.spill_failed = spill_failed_;
  out.barriers = barriers_;
  // The total is rack 0's tally with every other rack merged in, so each
  // cluster ratio is taken once, over sums pooled exactly across racks.
  cosim::CosimTally total = racks_.front()->tally();
  out.racks.push_back(total.report());
  for (std::size_t r = 1; r < racks_.size(); ++r) {
    const cosim::CosimTally rack = racks_[r]->tally();
    out.racks.push_back(rack.report());
    total.merge(rack);
  }
  out.interconnect_power_w = fabric_.power_w(coupled());
  out.interconnect_energy_j = out.interconnect_power_w * sim::to_s(total.completed_at);
  out.interconnect_utilization = fabric_.utilization(total.completed_at);
  // The lit uplinks are part of what cluster-scale disaggregation costs:
  // fold them into the energy totals (rack-scale runs add exactly zero).
  total.energy_joules += out.interconnect_energy_j;
  total.mean_power_w += out.interconnect_power_w;
  total.peak_power_w += out.interconnect_power_w;
  total.photonic_power_w += out.interconnect_power_w;
  out.total = total.report();
  return out;
}

ClusterReport run_cluster_cosim(const rack::RackConfig& rack,
                                disagg::AllocationPolicy policy,
                                const workloads::UsageModel& usage,
                                const ClusterConfig& cluster,
                                const cosim::CosimConfig& cfg, obs::Obs obs) {
  ClusterCosim sim(rack, policy, usage, cluster, cfg, obs);
  sim.run();
  return sim.report();
}

}  // namespace photorack::cluster
