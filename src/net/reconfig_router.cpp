#include "net/reconfig_router.hpp"

#include <stdexcept>

namespace photorack::net {

ReconfigRouter::ReconfigRouter(const rack::SpatialFabricPlan& plan,
                               CentralizedScheduler& scheduler, Config cfg)
    : plan_(&plan), scheduler_(&scheduler), cfg_(cfg) {}

ReconfigRouter::Circuit* ReconfigRouter::find_circuit(int a, int b) {
  const auto it = circuits_.find({a, b});
  return it == circuits_.end() ? nullptr : &it->second;
}

sim::Quanta ReconfigRouter::circuit_headroom(int a, int b) const {
  const auto it = circuits_.find({a, b});
  return it == circuits_.end() ? 0 : it->second.capacity - it->second.used;
}

bool ReconfigRouter::take(int a, int b, sim::Quanta bw) {
  Circuit* c = find_circuit(a, b);
  if (c == nullptr || c->capacity - c->used < bw) return false;
  c->used += bw;
  return true;
}

ReconfigRouter::Placement ReconfigRouter::place(int src, int dst, double gbps,
                                                sim::TimePs now) {
  Placement p;
  p.bw = sim::to_quanta(gbps);

  // 1. Existing direct circuit.
  if (take(src, dst, p.bw)) {
    p.placed = true;
    p.ready_at = now;
    p.circuits_used = {{src, dst}};
    ++direct_hits_;
    return p;
  }

  // 2. Indirect over circuits that are already up (the §IV-B synergy):
  //    only intermediates with live src->mid and mid->dst circuits qualify.
  if (cfg_.use_indirect) {
    for (const auto& [key, circuit] : circuits_) {
      const auto [a, mid] = key;
      if (a != src || mid == dst) continue;
      if (circuit.capacity - circuit.used < p.bw) continue;
      if (circuit_headroom(mid, dst) < p.bw) continue;
      take(src, mid, p.bw);
      take(mid, dst, p.bw);
      p.placed = true;
      p.ready_at = now;
      p.indirect = true;
      p.circuits_used = {{src, mid}, {mid, dst}};
      ++indirect_hits_;
      return p;
    }
  }

  // 3. Reconfigure: ask the scheduler for a fresh circuit.
  const auto grant = scheduler_->request_circuit(src, dst, now);
  if (!grant.granted) return p;  // no shared switch / ports exhausted
  ++reconfigs_;
  auto& circuit = circuits_[{src, dst}];
  circuit.capacity += sim::to_quanta(cfg_.circuit_gbps);
  if (circuit.capacity - circuit.used < p.bw) {
    // Even a fresh circuit cannot carry this flow in one piece.
    p.placed = false;
    return p;
  }
  circuit.used += p.bw;
  p.placed = true;
  p.ready_at = grant.ready_at;
  p.reconfigured = true;
  p.circuits_used = {{src, dst}};
  return p;
}

void ReconfigRouter::release(const Placement& placement) {
  if (!placement.placed) return;
  for (const auto& [a, b] : placement.circuits_used) {
    Circuit* c = find_circuit(a, b);
    if (c == nullptr || placement.bw > c->used)
      throw std::logic_error("ReconfigRouter::release: released more than reserved");
    c->used -= placement.bw;
  }
}

}  // namespace photorack::net
