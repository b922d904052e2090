#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace photorack::fault {

/// Derive the deterministic fault timeline for one run.
///
/// Every component gets its own child RNG stream rooted at
/// sim::Rng(seed).child(3) — the stream id the co-simulation reserves for
/// the fault layer (child(1) is the router, child(2) the arrivals,
/// child(16+k) the per-job plans).  Each stream alternates
/// up ~ Exp(MTBF) / down ~ Exp(MTTR) until the next failure would land at
/// or past `horizon`; repairs may land beyond it (completions drain past
/// the arrival horizon too).  Because the streams are derived with the
/// const child() operator and consumed independently of every placement
/// decision, the timeline is a pure function of (config, geometry, seed):
/// identical across --jobs levels, admission policies and allocation
/// policies — which is what makes "same fault timeline, different
/// allocation policy" a controlled comparison.
///
/// Events are sorted by (time, class, component, kind); link/laser events
/// carry the directed (a, b) pair they affect.  Throws
/// std::invalid_argument on malformed config (negative rates, zero MTTR,
/// degrade_fraction outside (0,1], negative retry/backoff knobs).
[[nodiscard]] std::vector<FaultEvent> derive_timeline(const FaultConfig& cfg,
                                                      int mcms, int nodes,
                                                      std::uint64_t seed,
                                                      sim::TimePs horizon);

/// Owns one run's fault timeline and injects it as first-class events on
/// the caller's sim::EventQueue.  Availability and measured MTTR are
/// analytic functions of the timeline, so they never depend on job load.
class FaultScheduler {
 public:
  FaultScheduler(const FaultConfig& cfg, int mcms, int nodes, std::uint64_t seed,
                 sim::TimePs horizon);

  [[nodiscard]] const std::vector<FaultEvent>& timeline() const { return timeline_; }

  /// Schedule every timeline entry onto `queue`, calling `handler(event)`
  /// at its fire time.  Call once, before the queue starts running.
  void arm(sim::EventQueue& queue, std::function<void(const FaultEvent&)> handler) const;

  /// The timeline's downtime and repair-time sums, counters zero.  Downtime
  /// counts crash-stop components (MCMs, nodes) over [0, horizon): link and
  /// laser faults degrade goodput, not availability.
  [[nodiscard]] FaultTally tally(sim::TimePs horizon) const;

 private:
  int mcms_;
  int nodes_;
  std::vector<FaultEvent> timeline_;
};

}  // namespace photorack::fault
