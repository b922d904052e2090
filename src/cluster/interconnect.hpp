#pragma once

#include <vector>

#include "phot/units.hpp"
#include "sim/quanta.hpp"
#include "sim/time.hpp"

namespace photorack::cluster {

/// Bandwidth/latency/energy model of the inter-rack DWDM interconnect: one
/// directed link of `gbps_per_link` between every ordered rack pair, each
/// crossing costing `hop_ns` of propagation plus transceiver energy at
/// `pj_per_bit`.  Deliberately coarse next to the intra-rack wavelength
/// fabric — the cluster question (Ajibola et al.: rack-scale vs cluster-scale
/// disaggregation) is decided by how much spilled traffic leaves the rack and
/// what the always-on uplink transceivers burn, not by per-wavelength
/// contention two hops away.
///
/// Reservation state is integer sim::Quanta per directed link, mutated only
/// by the cluster coordinator between synchronization windows (never from
/// rack worker threads), so no locking is needed.  Reserves and releases
/// arrive in time order (the barrier exchange sorts them), so the fabric
/// integrates allocation over time for a whole-run utilization.
class InterRackFabric {
 public:
  InterRackFabric(int racks, double gbps_per_link, double hop_ns,
                  double pj_per_bit);

  [[nodiscard]] int racks() const { return racks_; }
  [[nodiscard]] double gbps_per_link() const { return gbps_; }

  /// Directed link id for src -> dst; throws std::invalid_argument when
  /// src == dst or either index is out of range.
  [[nodiscard]] int link(int src, int dst) const;

  /// Reserve up to `want` on the link at time `at`; returns the amount granted
  /// (never negative, never above the free capacity).  Throws
  /// std::logic_error when `at` precedes the previous reserve/release.
  sim::Quanta reserve(int link_id, sim::Quanta want, sim::TimePs at);
  /// Return previously granted capacity at time `at`; throws
  /// std::logic_error when more is released than is allocated (a
  /// double-release bug upstream) or `at` goes back in time.
  void release(int link_id, sim::Quanta amount, sim::TimePs at);

  [[nodiscard]] sim::Quanta allocated(int link_id) const;
  /// Allocated fraction of every directed link's capacity, averaged over
  /// [0, end]; 0 for a zero-length run or a single rack.
  [[nodiscard]] double utilization(sim::TimePs end) const;

  /// Per-message propagation delay.  Never below 1 ps: the cluster loop's
  /// conservative window is exactly this wide, and a zero-width window
  /// could not make progress.
  [[nodiscard]] sim::TimePs hop_latency_ps() const { return hop_ps_; }

  /// Always-on transceiver power of the cluster uplinks: one uplink per
  /// rack at the link rate, lasers on whether or not traffic flows (the
  /// same lasers-always-on discipline as the intra-rack photonic floor).
  /// Rack-scale disaggregation leaves the uplinks dark (0 W) — that is the
  /// energy contrast the cluster_energy campaign measures.
  [[nodiscard]] double power_w(bool lit) const;

 private:
  int racks_;
  double gbps_;
  sim::Quanta cap_;  // per directed link
  sim::TimePs hop_ps_;
  double pj_per_bit_;
  std::vector<sim::Quanta> alloc_;  // per directed link
  sim::Quanta used_ = 0;            // sum of alloc_
  sim::TimePs last_change_ = 0;     // time of the latest reserve/release
  double used_area_ = 0.0;          // integral of used_ over [0, last_change_], quanta x ps

  void check_link(int link_id) const;
  /// Fold the allocation held since the last change into the time integral.
  void advance_to(sim::TimePs at);
};

}  // namespace photorack::cluster
