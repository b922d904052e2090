#pragma once

// Profile-once / replay-many latency sweeps.
//
// The disaggregation latency under study (`DramConfig::extra_ns`) is a
// purely additive term on every DRAM response: it never feeds back into the
// address stream, cache contents, row-buffer state, prefetch training, the
// OOO MLP window, or the accelerator burst slots.  Everything except the
// per-miss latency arithmetic is therefore identical across a latency
// sweep.  A `MissProfile` captures that latency-independent skeleton from
// one instrumented simulation — total instruction/mem-op/LLC counters plus
// one compact record per timed LLC miss — and `replay_profile()` rebuilds
// the full SimResult for ANY extra_ns in O(misses) instead of
// O(instructions), bit-identical to a from-scratch run_simulation().
//
// Why replay is exact (and what would break it): between two LLC misses the
// core only adds latency-independent cycle increments — issue slots (1 or
// 1/width), cache-hit penalties (integer cycles, or exposure x integer),
// accelerator line cycles.  With the default configs these are all small
// dyadic rationals (multiples of 1/4), so IEEE-754 accumulation of a
// segment never rounds and the segment sum can be re-applied in one
// addition without changing the bits; the latency-dependent miss terms are
// then re-added one by one in the original order with the original
// expression shapes.  A CoreConfig whose per-event increments are not
// exactly representable (e.g. freq_ghz or ooo_hit_exposure with a
// non-dyadic value) could in principle round inside a segment; the replay
// tests pin bit-identity for the configurations the campaigns run.

#include <cstdint>
#include <vector>

#include "cpusim/runner.hpp"

namespace photorack::cpusim {

/// How a timed LLC miss entered the cycle accounting (selects the replay
/// formula; mirrors the branches in Core::execute_*_mem).
enum class MissKind : std::uint8_t {
  kInOrder,         // cycles += llc_latency + dc;  stall += dc
  kOooDependent,    // cycles += dc;                stall += dc
  kOooIndependent,  // cycles += dc / mlp;          stall += dc / mlp
  kAccelBurstHead,  // cycles += dc;                stall += dc
  kAccelStream,     // cycles += line_cycles;       stall += line_cycles
};

/// One LLC miss: everything latency-dependent about it, nothing else.
struct MissRecord {
  /// Latency-independent cycles accumulated since the previous miss (issue
  /// slots, cache-hit penalties, streamed accelerator lines).
  double base_cycles = 0.0;
  MissKind kind = MissKind::kInOrder;
  /// Row-buffer outcome: selects row_hit_ns vs row_miss_ns at replay time.
  bool row_hit = false;
  /// Effective MLP divisor for kOooIndependent (1 otherwise).
  std::uint16_t mlp = 1;
};

/// Latency-independent skeleton of one (trace, SimConfig) simulation.
struct MissProfile {
  // Enough of the recorded configuration to rebuild the miss arithmetic.
  CoreConfig core;
  // dram.extra_ns is the latency the profile was RECORDED at; replay
  // accepts any value (only the base row-hit/miss latencies matter here).
  DramConfig dram;
  int llc_latency_cycles = 0;

  // Latency-independent totals of the measured phase.
  std::uint64_t instructions = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t llc_accesses = 0;
  std::uint64_t llc_misses = 0;
  double dram_row_hit_rate = 0.0;

  /// One record per timed LLC miss, in execution order.
  std::vector<MissRecord> misses;
  /// Latency-independent cycles after the last miss (or the whole run when
  /// there were no misses).
  double tail_base_cycles = 0.0;

  [[nodiscard]] std::size_t miss_count() const { return misses.size(); }
};

/// Event sink the Core feeds while recording (attached only for the
/// measured phase).  Kept header-inline: it sits on the simulation hot path.
class MissProfileRecorder {
 public:
  /// A latency-independent cycle increment (issue slot, hit penalty, ...).
  void on_base_cycles(double cycles) { segment_ += cycles; }

  /// A timed LLC miss; closes the current base segment.
  void on_miss(MissKind kind, bool row_hit, int mlp) {
    profile_.misses.push_back(MissRecord{
        segment_, kind, row_hit, static_cast<std::uint16_t>(mlp)});
    segment_ = 0.0;
  }

  /// Seal the profile: copy the latency-independent totals and the
  /// configuration needed to rebuild the per-miss arithmetic.
  void finish(const SimConfig& cfg, const CoreStats& stats, double row_hit_rate);

  [[nodiscard]] MissProfile take() && { return std::move(profile_); }

 private:
  MissProfile profile_;
  double segment_ = 0.0;
};

/// Phase 1: run one instrumented simulation (same prewarm/warmup/measure
/// protocol as run_simulation) and capture its miss profile.  The returned
/// profile replays exactly for any extra_ns; `replay_profile(p,
/// p.dram.extra_ns)` reproduces the recorded run's SimResult bit-for-bit.
[[nodiscard]] MissProfile record_miss_profile(TraceSource& trace, const SimConfig& cfg);

/// Phase 2: rebuild the SimResult the recorded simulation would produce at
/// `extra_ns`, in O(misses).
[[nodiscard]] SimResult replay_profile(const MissProfile& profile, double extra_ns);

}  // namespace photorack::cpusim
