#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::net {

WavelengthFabric::WavelengthFabric(int mcms, const rack::AwgrFabricPlan& plan)
    : mcms_(mcms),
      radix_(plan.awgr_radix),
      gbps_per_lambda_(plan.direct_pair_bandwidth.value /
                       std::max(1, plan.min_direct_lambdas_per_pair)),
      lambdas_(plan.lambdas_per_port) {
  if (mcms <= 0 || mcms > radix_)
    throw std::invalid_argument("WavelengthFabric: MCM count must fit the AWGR radix");
  if (lambdas_.empty()) throw std::invalid_argument("WavelengthFabric: no AWGRs in plan");
  const auto pairs = static_cast<std::size_t>(mcms_) * mcms_;
  const sim::Quanta healthy = sim::to_quanta(gbps_per_lambda_);
  alloc_.assign(lambdas_.size(), std::vector<sim::Quanta>(pairs, 0));
  cap_.assign(pairs, healthy);
  // Count the covered wavelengths per source, not per pair (a covers() scan
  // of all N^2 pairs made a 96-MCM rack's setup a third slower): with src,
  // dst < mcms <= radix, (src + dst) mod radix < lit holds exactly for
  // dst < lit - src and for radix - src <= dst < radix + lit - src;
  // covers() excludes src == dst.
  for (int a = 0; a < parallel_awgrs(); ++a) {
    const int lit = std::min(lambdas_[static_cast<std::size_t>(a)], radix_);
    for (int s = 0; s < mcms_; ++s) {
      const int covered = std::clamp(lit - s, 0, mcms_) +
                          std::max(0, std::min(mcms_, radix_ + lit - s) - (radix_ - s)) -
                          ((2 * s) % radix_ < lit ? 1 : 0);
      cap_total_ += covered * healthy;
    }
  }
}

bool WavelengthFabric::covers(int awgr, int src, int dst) const {
  if (src == dst) return false;
  // The port drives its first `lambdas_[awgr]` wavelength indices; the
  // cyclic AWGR shuffle lambda = (src+dst) mod radix then determines which
  // destinations those wavelengths land on.
  return (src + dst) % radix_ < lambdas_[static_cast<std::size_t>(awgr)];
}

int WavelengthFabric::direct_lambdas(int src, int dst) const {
  int n = 0;
  for (int a = 0; a < parallel_awgrs(); ++a) n += covers(a, src, dst) ? 1 : 0;
  return n;
}

sim::Quanta WavelengthFabric::free_direct(int src, int dst) const {
  // Clamped at zero: reservations made before a degradation may exceed the
  // reduced capacity.
  const sim::Quanta cap = cap_[idx(src, dst)];
  sim::Quanta free = 0;
  for (int a = 0; a < parallel_awgrs(); ++a) {
    if (!covers(a, src, dst)) continue;
    free += std::max<sim::Quanta>(0, cap - alloc_[static_cast<std::size_t>(a)][idx(src, dst)]);
  }
  return free;
}

sim::Quanta WavelengthFabric::allocated(int src, int dst) const {
  sim::Quanta total = 0;
  for (int a = 0; a < parallel_awgrs(); ++a)
    total += alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
  return total;
}

sim::Quanta WavelengthFabric::allocate_direct(int src, int dst, sim::Quanta want) {
  const sim::Quanta cap = cap_[idx(src, dst)];
  sim::Quanta granted = 0;
  for (int a = 0; a < parallel_awgrs() && want > granted; ++a) {
    if (!covers(a, src, dst)) continue;
    auto& used = alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
    const sim::Quanta take = std::min(want - granted, std::max<sim::Quanta>(0, cap - used));
    used += take;
    granted += take;
  }
  used_total_ += granted;
  return granted;
}

void WavelengthFabric::release_direct(int src, int dst, sim::Quanta amount) {
  if (amount > allocated(src, dst))
    throw std::logic_error("release_direct: released more than allocated");
  used_total_ -= amount;
  for (int a = 0; a < parallel_awgrs() && amount > 0; ++a) {
    if (!covers(a, src, dst)) continue;
    auto& used = alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
    const sim::Quanta give = std::min(amount, used);
    used -= give;
    amount -= give;
  }
}

std::vector<sim::Quanta> WavelengthFabric::allocation_snapshot() const {
  std::vector<sim::Quanta> snapshot;
  snapshot.reserve(alloc_.size() * static_cast<std::size_t>(mcms_) * mcms_);
  for (const auto& table : alloc_) {
    snapshot.insert(snapshot.end(), table.begin(), table.end());
  }
  return snapshot;
}

void WavelengthFabric::check_pair(int src, int dst, double factor,
                                  const char* who) const {
  if (src == dst || src < 0 || dst < 0 || src >= mcms_ || dst >= mcms_)
    throw std::invalid_argument(std::string(who) + ": bad pair");
  if (factor < 0.0 || factor > 1.0)
    throw std::invalid_argument(std::string(who) + ": value must be in [0,1]");
}

void WavelengthFabric::recompute_capacity(int src, int dst) {
  // Product over a value-sorted copy: the capacity depends only on the SET
  // of live factors, never on push order, so two fault histories that leave
  // the same faults active read identical capacity.  No factors multiplies
  // nothing into 1.0 — the exact healthy capacity.
  std::vector<double> live;
  if (const auto it = factors_.find(idx(src, dst)); it != factors_.end()) live = it->second;
  std::sort(live.begin(), live.end());
  double scale = 1.0;
  for (const double f : live) scale *= f;
  const sim::Quanta before = direct_capacity(src, dst);
  cap_[idx(src, dst)] = sim::to_quanta(gbps_per_lambda_ * scale);
  cap_total_ += direct_capacity(src, dst) - before;
}

void WavelengthFabric::push_pair_factor(int src, int dst, double factor) {
  check_pair(src, dst, factor, "push_pair_factor");
  factors_[idx(src, dst)].push_back(factor);
  recompute_capacity(src, dst);
}

void WavelengthFabric::pop_pair_factor(int src, int dst, double factor) {
  check_pair(src, dst, factor, "pop_pair_factor");
  const auto pair = factors_.find(idx(src, dst));
  if (pair == factors_.end() ||
      std::find(pair->second.begin(), pair->second.end(), factor) == pair->second.end())
    throw std::logic_error("pop_pair_factor: factor not live on this pair");
  auto& live = pair->second;
  live.erase(std::find(live.begin(), live.end(), factor));
  if (live.empty()) factors_.erase(pair);
  recompute_capacity(src, dst);
}

}  // namespace photorack::net
