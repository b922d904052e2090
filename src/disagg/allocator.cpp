#include "disagg/allocator.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

namespace photorack::disagg {

namespace {

/// Allocation ids are unique across every allocator in the process, so an
/// Allocation handed to the wrong allocator can never alias an id that
/// allocator granted itself — release() then reliably throws instead of
/// silently draining pools that were never charged.
std::uint64_t next_global_allocation_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const config::EnumCodec<AllocationPolicy>& allocation_policy_codec() {
  static const config::EnumCodec<AllocationPolicy> codec(
      "policy", {{"static", AllocationPolicy::kStaticNodes},
                 {"disagg", AllocationPolicy::kDisaggregated}});
  return codec;
}

RackAllocator::RackAllocator(const rack::RackConfig& rack, AllocationPolicy policy,
                             double memory_gb_per_node, double nic_gbps_per_node)
    : policy_(policy),
      nodes_(rack.nodes),
      cpus_per_node_(rack.node.cpus),
      gpus_per_node_(rack.node.gpus),
      memory_per_node_(sim::to_quanta(memory_gb_per_node)),
      nic_per_node_(sim::to_quanta(nic_gbps_per_node)),
      free_nodes_(rack.nodes),
      node_state_(static_cast<std::size_t>(rack.nodes), NodeState::kFree) {
  pools_.cpus_total = nodes_ * cpus_per_node_;
  pools_.gpus_total = nodes_ * gpus_per_node_;
  pools_.memory_total = nodes_ * memory_per_node_;
  pools_.nic_total = nodes_ * nic_per_node_;
}

Allocation RackAllocator::allocate(const JobRequest& req) {
  Allocation a;
  if (req.cpus < 0 || req.gpus < 0 || req.memory_gb < 0 || req.nic_gbps < 0)
    throw std::invalid_argument("allocate: negative request");
  ++counters_.attempts;
  const sim::Quanta memory = sim::to_quanta(req.memory_gb);
  const sim::Quanta nic = sim::to_quanta(req.nic_gbps);

  if (policy_ == AllocationPolicy::kStaticNodes) {
    // A job gets the smallest node count covering its largest per-resource
    // demand; everything else in those nodes is marooned.
    auto nodes_for = [](sim::Quanta want, sim::Quanta per_node) {
      return per_node > 0 ? static_cast<int>((want + per_node - 1) / per_node) : 0;
    };
    const int need = std::max({1, nodes_for(req.cpus, cpus_per_node_),
                               nodes_for(req.gpus, gpus_per_node_),
                               nodes_for(memory, memory_per_node_),
                               nodes_for(nic, nic_per_node_)});
    if (need > free_nodes_) return a;
    free_nodes_ -= need;
    a.hosts.reserve(static_cast<std::size_t>(need));
    for (int n = 0; static_cast<int>(a.hosts.size()) < need; ++n) {
      NodeState& state = node_state_[static_cast<std::size_t>(n)];
      if (state != NodeState::kFree) continue;
      state = NodeState::kGranted;
      a.hosts.push_back(n);
    }
    a.placed = true;
    a.nodes = need;
    a.cpus = need * cpus_per_node_;
    a.gpus = need * gpus_per_node_;
    a.memory = need * memory_per_node_;
    a.nic = need * nic_per_node_;
    a.marooned_cpus = std::max(0, a.cpus - req.cpus);
    a.marooned_memory = std::max<sim::Quanta>(0, a.memory - memory);
    marooned_cpus_ += a.marooned_cpus;
    marooned_memory_ += a.marooned_memory;
  } else {
    if (req.cpus > pools_.cpus_total - pools_.cpus_used) return a;
    if (req.gpus > pools_.gpus_total - pools_.gpus_used) return a;
    if (memory > pools_.memory_total - pools_.memory_used) return a;
    if (nic > pools_.nic_total - pools_.nic_used) return a;
    a.placed = true;
    a.cpus = req.cpus;
    a.gpus = req.gpus;
    a.memory = memory;
    a.nic = nic;
    // The home node advances on every placed grant and skips offline nodes;
    // with every node offline the grant has no home.
    for (int tries = 0; tries < nodes_; ++tries) {
      const int cand = static_cast<int>(next_home_++ % static_cast<std::size_t>(nodes_));
      if (node_state_[static_cast<std::size_t>(cand)] == NodeState::kOffline) continue;
      a.hosts.push_back(cand);
      break;
    }
  }
  pools_.cpus_used += a.cpus;
  pools_.gpus_used += a.gpus;
  pools_.memory_used += a.memory;
  pools_.nic_used += a.nic;
  ++counters_.placements;
  a.id = next_global_allocation_id();
  live_.emplace(a.id, a);
  return a;
}

void RackAllocator::release(const Allocation& alloc) { reclaim(alloc, false); }

void RackAllocator::revoke(const Allocation& alloc) { reclaim(alloc, true); }

void RackAllocator::reclaim(const Allocation& alloc, bool revoked) {
  if (!alloc.placed) return;
  const auto it = live_.find(alloc.id);
  if (it == live_.end())
    throw std::logic_error(std::string(revoked ? "revoke" : "release") +
                           ": allocation id " + std::to_string(alloc.id) +
                           " was never granted or is already released");
  // Decrement by the grant this allocator recorded, never by the caller's
  // copy: mutated Allocation fields cannot skew the accounting, and the
  // pools can only ever return to exactly what allocate() charged.
  const Allocation& granted = it->second;
  ++(revoked ? counters_.revocations : counters_.releases);
  pools_.cpus_used -= granted.cpus;
  pools_.gpus_used -= granted.gpus;
  pools_.memory_used -= granted.memory;
  pools_.nic_used -= granted.nic;
  free_nodes_ += granted.nodes;
  if (policy_ == AllocationPolicy::kStaticNodes)
    for (const int n : granted.hosts)
      node_state_[static_cast<std::size_t>(n)] = NodeState::kFree;
  marooned_cpus_ -= granted.marooned_cpus;
  marooned_memory_ -= granted.marooned_memory;
  live_.erase(it);
}

RackAllocator::NodeState& RackAllocator::node_state(int node, const char* what) {
  if (node < 0 || node >= nodes_)
    throw std::out_of_range(std::string(what) + ": no node " + std::to_string(node));
  return node_state_[static_cast<std::size_t>(node)];
}

void RackAllocator::take_node_offline(int node) {
  NodeState& state = node_state(node, "take_node_offline");
  // Under static nodes a node is either whole-free or whole-granted; the
  // fault path must revoke the victims before retiring their nodes, so an
  // occupied node here is a sequencing bug, not a recoverable state.
  if (state == NodeState::kGranted)
    throw std::logic_error("take_node_offline: node " + std::to_string(node) +
                           " still allocated (revoke first)");
  if (state == NodeState::kOffline)
    throw std::logic_error("take_node_offline: node " + std::to_string(node) +
                           " already offline");
  state = NodeState::kOffline;
  ++offline_nodes_;
  --free_nodes_;
  pools_.cpus_total -= cpus_per_node_;
  pools_.gpus_total -= gpus_per_node_;
  pools_.memory_total -= memory_per_node_;
  pools_.nic_total -= nic_per_node_;
}

void RackAllocator::bring_node_online(int node) {
  NodeState& state = node_state(node, "bring_node_online");
  if (state != NodeState::kOffline)
    throw std::logic_error("bring_node_online: node " + std::to_string(node) +
                           " is online");
  state = NodeState::kFree;
  --offline_nodes_;
  ++free_nodes_;
  pools_.cpus_total += cpus_per_node_;
  pools_.gpus_total += gpus_per_node_;
  pools_.memory_total += memory_per_node_;
  pools_.nic_total += nic_per_node_;
}

double RackAllocator::marooned_cpu_fraction() const {
  return pools_.cpus_total ? static_cast<double>(marooned_cpus_) / pools_.cpus_total : 0.0;
}

double RackAllocator::marooned_memory_fraction() const {
  return sim::ratio(marooned_memory_, pools_.memory_total);
}

}  // namespace photorack::disagg
