#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/scheduler.hpp"
#include "sim/quanta.hpp"

namespace photorack::net {

/// Routing for reconfigurable (spatial / wave-selective) fabrics, §IV-B:
/// indirect routing *in tandem with* reconfiguration.  A flow first tries
/// circuits that already exist — directly, or via one intermediate MCM that
/// already has circuits to both endpoints (never via an unconnected
/// intermediate, which would itself trigger a reconfiguration).  Only when
/// neither works does it ask the centralized scheduler for a new circuit
/// and pay decision latency plus the switch reconfiguration time.
///
/// The AWGR design (IndirectRouter) avoids this machinery entirely; the
/// ablation bench quantifies what that avoidance is worth.
struct ReconfigRouterConfig {
  double circuit_gbps = 6400.0;  // one 256-lambda port pair at 25 Gb/s
  bool use_indirect = true;      // the §IV-B synergy; off for ablation
};

class ReconfigRouter {
 public:
  using Config = ReconfigRouterConfig;

  struct Placement {
    bool placed = false;
    sim::Quanta bw = 0;            // demand; held on every leg once placed
    sim::TimePs ready_at = 0;      // when the last needed circuit is usable
    bool reconfigured = false;     // a new circuit had to be set up
    bool indirect = false;         // rode existing circuits via a mid MCM
    std::vector<std::pair<int, int>> circuits_used;  // (a, b) legs
  };

  ReconfigRouter(const rack::SpatialFabricPlan& plan, CentralizedScheduler& scheduler,
                 Config cfg = {});

  /// Place a flow of `gbps` (quantized once, to sim::Quanta) at time `now`.
  [[nodiscard]] Placement place(int src, int dst, double gbps, sim::TimePs now);

  /// Release a previous placement's bandwidth (circuits stay configured;
  /// real systems tear them down lazily, and keeping them warm is exactly
  /// what makes the indirect synergy work).  Throws std::logic_error when
  /// a leg would go below zero, e.g. on releasing a placement twice.
  void release(const Placement& placement);

  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfigs_; }
  [[nodiscard]] std::uint64_t indirect_hits() const { return indirect_hits_; }
  [[nodiscard]] std::uint64_t direct_hits() const { return direct_hits_; }

  /// Spare capacity on an existing circuit (0 when none exists).
  [[nodiscard]] sim::Quanta circuit_headroom(int a, int b) const;

 private:
  struct Circuit {
    sim::Quanta capacity = 0;
    sim::Quanta used = 0;
  };

  const rack::SpatialFabricPlan* plan_;
  CentralizedScheduler* scheduler_;
  Config cfg_;
  std::map<std::pair<int, int>, Circuit> circuits_;
  std::uint64_t reconfigs_ = 0;
  std::uint64_t indirect_hits_ = 0;
  std::uint64_t direct_hits_ = 0;

  Circuit* find_circuit(int a, int b);
  bool take(int a, int b, sim::Quanta bw);
};

}  // namespace photorack::net
