#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phot/units.hpp"
#include "rack/rack_builder.hpp"
#include "sim/quanta.hpp"
#include "sim/time.hpp"

namespace photorack::net {

/// Geometry of a co-sim-scale all-pairs wavelength fabric: `mcms` endpoints
/// where every (src, dst) pair gets `lambdas_per_pair` dedicated DWDM
/// wavelengths of `gbps_per_wavelength` each, with allocation state
/// disseminated by piggybacked telemetry every `piggyback_interval`.
/// Registered as the "net" section of the config registry, so campaigns
/// and `--set net.gbps_per_wavelength=32` style overrides address it
/// directly; the rack co-simulation builds its fabric from this.
struct FabricSliceConfig {
  int mcms = 24;
  int lambdas_per_pair = 1;              // direct wavelengths per (src,dst) pair
  phot::Gbps gbps_per_wavelength{25.0};  // per-wavelength rate (Table III)
  sim::TimePs piggyback_interval = 10 * sim::kPsPerUs;
};

/// Wavelength-level state of the parallel-AWGR fabric (case (A) of §V-B).
///
/// Each of the `parallel_awgrs` AWGRs dedicates exactly one wavelength to
/// every (source MCM, destination MCM) pair it covers; a wavelength carries
/// `gbps_per_wavelength` and may be multiplexed by several flows (§IV-A).
/// The fabric tracks allocated bandwidth per (awgr, src, dst) in integer
/// sim::Quanta (1 kb/s), so the ledger is exact: any sequence of allocations
/// and releases that returns everything reads exactly zero, and the running
/// used/capacity totals behind utilization() never drift.
class WavelengthFabric {
 public:
  WavelengthFabric(int mcms, const rack::AwgrFabricPlan& plan);

  [[nodiscard]] int mcms() const { return mcms_; }
  [[nodiscard]] int parallel_awgrs() const { return static_cast<int>(lambdas_.size()); }
  [[nodiscard]] double gbps_per_wavelength() const { return gbps_per_lambda_; }

  /// True when AWGR `a` gives `src` a dedicated wavelength to `dst`.
  /// Partially-filled ports (fewer wavelengths than the AWGR radix) cover
  /// the cyclically-first subset of destinations.
  [[nodiscard]] bool covers(int awgr, int src, int dst) const;

  /// Number of direct wavelengths between a pair (across all AWGRs).
  [[nodiscard]] int direct_lambdas(int src, int dst) const;

  /// Total / free / allocated direct capacity between a pair.
  [[nodiscard]] sim::Quanta direct_capacity(int src, int dst) const {
    return direct_lambdas(src, dst) * cap_[idx(src, dst)];
  }
  [[nodiscard]] sim::Quanta free_direct(int src, int dst) const;
  [[nodiscard]] sim::Quanta allocated(int src, int dst) const;

  /// Reserve up to `want` of direct capacity; returns the amount actually
  /// reserved (fills AWGRs in index order — deterministic).
  sim::Quanta allocate_direct(int src, int dst, sim::Quanta want);

  /// Release previously reserved direct capacity (same ordering); throws
  /// std::logic_error when more is released than the pair holds.
  void release_direct(int src, int dst, sim::Quanta amount);

  /// Flat copy of every AWGR's per-pair allocation table (awgr-major), for
  /// exact state comparison: a phase loop that opens and then closes a flow
  /// set must leave this snapshot unchanged.
  [[nodiscard]] std::vector<sim::Quanta> allocation_snapshot() const;

  /// Allocated over total capacity of every covered pair, from two running
  /// totals.  Normally in [0,1]; under fault degradation existing
  /// reservations may transiently exceed the scaled capacity.
  [[nodiscard]] double utilization() const { return sim::ratio(used_total_, cap_total_); }

  // --- fault hooks (src/fault): per-pair capacity factors ---
  //
  // A factor of 1 is healthy, 0 a dead pair (endpoint crash-stop or link
  // cut), anything between a degraded laser.  Factors change CAPACITY only:
  // each of the pair's wavelengths carries `gbps_per_wavelength * scale`
  // quantized once into the capacity table, free_direct/allocate_direct
  // clamp at the already-allocated amount, and release_direct still
  // returns exactly what was reserved.
  //
  // Faults COMPOSE: several independent faults (an MCM crash, a link cut, a
  // degraded comb laser) can degrade the same directed pair at once, and
  // each repair must undo exactly its own fault's contribution, so each
  // fault pushes a multiplicative factor and pops the same value on repair.
  // The effective scale is the product of the pair's live factors, taken in
  // ascending-value order so it is independent of the push sequence; an
  // empty factor list restores exactly the healthy capacity.

  /// Contribute one fault's capacity factor to the directed pair; throws
  /// std::invalid_argument outside [0,1] or for a bad pair.
  void push_pair_factor(int src, int dst, double factor);
  /// Remove one previously pushed factor (matched by value); throws
  /// std::logic_error when no such factor is live on the pair.
  void pop_pair_factor(int src, int dst, double factor);

 private:
  int mcms_;
  int radix_;
  double gbps_per_lambda_;
  std::vector<int> lambdas_;                     // wavelengths per port, per AWGR
  std::vector<std::vector<sim::Quanta>> alloc_;  // [awgr][src*mcms+dst] allocated
  std::vector<sim::Quanta> cap_;                 // [src*mcms+dst] per-wavelength capacity
  // Live fault factors, keyed by src*mcms+dst, for faulted pairs only.
  std::unordered_map<std::size_t, std::vector<double>> factors_;
  sim::Quanta used_total_ = 0;                   // sum of alloc_
  sim::Quanta cap_total_ = 0;                    // sum of cap_ over covered wavelengths

  void check_pair(int src, int dst, double factor, const char* who) const;
  void recompute_capacity(int src, int dst);

  [[nodiscard]] std::size_t idx(int src, int dst) const {
    return static_cast<std::size_t>(src) * mcms_ + dst;
  }
};

}  // namespace photorack::net
