#include "cluster/interconnect.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::cluster {

InterRackFabric::InterRackFabric(int racks, double gbps_per_link, double hop_ns,
                                 double pj_per_bit)
    : racks_(racks),
      gbps_(gbps_per_link),
      cap_(sim::to_quanta(gbps_per_link)),
      hop_ps_(std::max<sim::TimePs>(
          1, static_cast<sim::TimePs>(hop_ns *
                                      static_cast<double>(sim::kPsPerNs)))),
      pj_per_bit_(pj_per_bit) {
  if (racks < 1) throw std::invalid_argument("InterRackFabric: need >= 1 rack");
  if (gbps_per_link <= 0.0)
    throw std::invalid_argument("InterRackFabric: link rate must be positive");
  if (hop_ns < 0.0)
    throw std::invalid_argument("InterRackFabric: hop latency must be >= 0");
  if (pj_per_bit < 0.0)
    throw std::invalid_argument("InterRackFabric: pJ/bit must be >= 0");
  alloc_.assign(static_cast<std::size_t>(racks_) * racks_, 0);
}

int InterRackFabric::link(int src, int dst) const {
  if (src == dst || src < 0 || dst < 0 || src >= racks_ || dst >= racks_)
    throw std::invalid_argument("InterRackFabric::link: bad rack pair");
  return src * racks_ + dst;
}

void InterRackFabric::check_link(int link_id) const {
  if (link_id < 0 || static_cast<std::size_t>(link_id) >= alloc_.size())
    throw std::invalid_argument("InterRackFabric: bad link id");
}

void InterRackFabric::advance_to(sim::TimePs at) {
  if (at < last_change_)
    throw std::logic_error("InterRackFabric: reserve/release out of time order");
  used_area_ += static_cast<double>(used_) * static_cast<double>(at - last_change_);
  last_change_ = at;
}

sim::Quanta InterRackFabric::reserve(int link_id, sim::Quanta want, sim::TimePs at) {
  check_link(link_id);
  if (want < 0)
    throw std::invalid_argument("InterRackFabric::reserve: negative demand");
  advance_to(at);
  auto& used = alloc_[static_cast<std::size_t>(link_id)];
  const sim::Quanta grant = std::min(want, std::max<sim::Quanta>(0, cap_ - used));
  used += grant;
  used_ += grant;
  return grant;
}

void InterRackFabric::release(int link_id, sim::Quanta amount, sim::TimePs at) {
  check_link(link_id);
  auto& used = alloc_[static_cast<std::size_t>(link_id)];
  if (amount > used)
    throw std::logic_error("InterRackFabric::release: more than allocated");
  advance_to(at);
  used -= amount;
  used_ -= amount;
}

sim::Quanta InterRackFabric::allocated(int link_id) const {
  check_link(link_id);
  return alloc_[static_cast<std::size_t>(link_id)];
}

double InterRackFabric::utilization(sim::TimePs end) const {
  if (racks_ < 2 || end <= 0) return 0.0;
  const double area =
      used_area_ + static_cast<double>(used_) *
                       static_cast<double>(std::max<sim::TimePs>(0, end - last_change_));
  // Diagonal entries are never allocated; capacity counts directed pairs.
  const double links = static_cast<double>(racks_) * (racks_ - 1);
  return area / (links * static_cast<double>(cap_) * static_cast<double>(end));
}

double InterRackFabric::power_w(bool lit) const {
  if (!lit) return 0.0;
  // W = (Gb/s × 1e9 b/s) × (pJ/bit × 1e-12 J/b) = Gb/s × pJ/bit × 1e-3.
  return static_cast<double>(racks_) * gbps_ * pj_per_bit_ * 1e-3;
}

}  // namespace photorack::cluster
