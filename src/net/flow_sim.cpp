#include "net/flow_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::net {

FlowEngine::FlowEngine(WavelengthFabric& fabric, sim::TimePs piggyback_interval,
                       std::uint64_t router_seed)
    : fabric_(&fabric),
      view_(fabric, piggyback_interval),
      router_(fabric, view_, router_seed) {}

void FlowEngine::attach_obs(const obs::Obs& obs) {
  obs_ = obs;
  if (obs_.profiler) {
    sc_open_ = obs_.profiler->scope("net.flow_open");
    sc_refresh_ = obs_.profiler->scope("net.view_refresh");
  }
}

void FlowEngine::refresh_view(sim::TimePs now) {
  obs::ScopedTimer timer(obs_.profiler, sc_refresh_);
  if (view_.maybe_refresh(now) && obs_.trace)
    obs_.trace->instant(obs::Track::kSim, "view_refresh", now);
}

std::uint64_t FlowEngine::open(const FlowSpec& spec, sim::TimePs now) {
  obs::ScopedTimer timer(obs_.profiler, sc_open_);
  const sim::Quanta demand = sim::to_quanta(spec.gbps);
  // No capacity bounds the run-long demand total (which bounds the grant
  // totals), so it is checked before anything is reserved.
  sim::Quanta requested_total = 0;
  if (__builtin_add_overflow(tally_.requested, demand, &requested_total))
    throw std::out_of_range("FlowEngine::open: run-long demand total overflows");
  RouteResult result = router_.route(spec.src, spec.dst, demand);
  ++tally_.flows;
  if (result.fully_satisfied()) ++tally_.fully_satisfied;
  tally_.stale_mispicks += static_cast<std::uint64_t>(result.stale_mispicks);
  tally_.second_hops += static_cast<std::uint64_t>(result.second_hops);
  tally_.offered_gbps.add(spec.gbps);
  tally_.intermediates.add(result.intermediates_used);
  tally_.requested = requested_total;
  tally_.direct += result.direct;
  tally_.indirect += result.indirect;
  tally_.peak_utilization = std::max(tally_.peak_utilization, fabric_->utilization());
  const std::uint64_t id = next_id_++;
  live_.emplace(id, LiveFlow{spec, std::move(result), now});
  return id;
}

const FlowEngine::LiveFlow& FlowEngine::live(std::uint64_t flow_id) const {
  const auto it = live_.find(flow_id);
  if (it == live_.end())
    throw std::out_of_range("FlowEngine: no live flow with id " + std::to_string(flow_id));
  return it->second;
}

const RouteResult& FlowEngine::result(std::uint64_t flow_id) const {
  return live(flow_id).route;
}

const FlowSpec& FlowEngine::spec(std::uint64_t flow_id) const { return live(flow_id).spec; }

void FlowEngine::close(std::uint64_t flow_id, sim::TimePs now) {
  const auto it = live_.find(flow_id);
  if (it == live_.end())
    throw std::out_of_range("FlowEngine: closing unknown flow id " +
                            std::to_string(flow_id));
  const LiveFlow& flow = it->second;
  const RouteResult& route = flow.route;
  router_.release(route);
  if (obs_.trace)
    obs_.trace->complete(
        obs::Track::kFlows, "flow", flow.opened_at, now,
        {{"src", static_cast<double>(flow.spec.src)},
         {"dst", static_cast<double>(flow.spec.dst)},
         {"gbps", sim::from_quanta(route.requested)},
         {"satisfied", sim::ratio(route.direct + route.indirect, route.requested, 1.0)}});
  live_.erase(it);
}

void FlowTally::merge(const FlowTally& other) {
  // Grants never exceed demand, so a demand sum that fits bounds them too.
  if (__builtin_add_overflow(requested, other.requested, &requested))
    throw std::out_of_range("FlowTally::merge: pooled demand total overflows");
  flows += other.flows;
  fully_satisfied += other.fully_satisfied;
  stale_mispicks += other.stale_mispicks;
  second_hops += other.second_hops;
  direct += other.direct;
  indirect += other.indirect;
  offered_gbps.merge(other.offered_gbps);
  intermediates.merge(other.intermediates);
  peak_utilization = std::max(peak_utilization, other.peak_utilization);
}

FlowSimReport FlowTally::report() const {
  const sim::Quanta satisfied = direct + indirect;
  return FlowSimReport{
      .flows = flows, .fully_satisfied = fully_satisfied,
      .offered_gbps_mean = offered_gbps.mean(),
      .satisfied_fraction = sim::ratio(satisfied, requested, 1.0),
      .direct_fraction = sim::ratio(direct, satisfied),
      .indirect_fraction = sim::ratio(indirect, satisfied),
      .stale_mispicks = stale_mispicks, .second_hops = second_hops,
      .mean_intermediates = intermediates.mean(),
      .peak_utilization = peak_utilization};
}

FlowSimulator::FlowSimulator(WavelengthFabric& fabric, FlowGenerator generator,
                             FlowSimConfig cfg)
    : generator_(std::move(generator)),
      cfg_(cfg),
      // Child-stream layout predates the FlowEngine split (router = the
      // first draw of child(1)); keep it so seeded runs reproduce.
      engine_(fabric, cfg.piggyback_interval, sim::Rng(cfg.seed).child(1)()),
      arrival_rng_(sim::Rng(cfg.seed).child(2)),
      flow_rng_(sim::Rng(cfg.seed).child(3)) {
  schedule_next_arrival();
}

void FlowSimulator::schedule_next_arrival() {
  const double mean_interarrival_ps =
      static_cast<double>(sim::kPsPerUs) / cfg_.arrivals_per_us;
  const auto gap =
      static_cast<sim::TimePs>(arrival_rng_.exponential(mean_interarrival_ps));
  if (queue_.now() + gap >= cfg_.sim_time) return;
  queue_.schedule_after(gap, [this]() {
    engine_.refresh_view(queue_.now());
    const FlowSpec spec = generator_(flow_rng_);
    const std::uint64_t id = engine_.open(spec, queue_.now());
    queue_.schedule_after(spec.duration,
                          [this, id]() { engine_.close(id, queue_.now()); });
    schedule_next_arrival();
  });
}

void FlowSimulator::advance_to(sim::TimePs t) { queue_.run(t); }

void FlowSimulator::finish() { queue_.run(); }

FlowSimReport FlowSimulator::run() {
  finish();
  return report();
}

}  // namespace photorack::net
