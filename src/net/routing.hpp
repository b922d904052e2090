#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "net/piggyback.hpp"
#include "sim/quanta.hpp"
#include "sim/rng.hpp"

namespace photorack::net {

/// One reserved path segment (for release bookkeeping).
struct PathSegment {
  int from = 0;
  int to = 0;
  sim::Quanta bw = 0;
};

/// Outcome of routing one flow demand.  Bandwidth fields are integer
/// sim::Quanta, so requested == direct + indirect + blocked holds exactly.
struct RouteResult {
  sim::Quanta requested = 0;
  sim::Quanta direct = 0;    // satisfied on src->dst wavelengths
  sim::Quanta indirect = 0;  // satisfied via intermediates
  sim::Quanta blocked = 0;   // could not be placed
  int intermediates_used = 0;
  int stale_mispicks = 0;      // stale view chose a busy mid->dst leg
  int second_hops = 0;         // recovered by a second intermediate
  std::vector<PathSegment> segments;  // all reservations, for release()

  /// Satisfied bandwidth in Gb/s.
  [[nodiscard]] double satisfied() const { return sim::from_quanta(direct + indirect); }
  [[nodiscard]] bool fully_satisfied() const { return blocked == 0; }
};

/// Distributed Valiant-style indirect routing over the AWGR fabric (§IV-A,
/// Fig 4).  Per-source logic only: a source sees the true state of its own
/// outgoing wavelengths and the piggybacked (stale) state of everyone
/// else's.  Indirect paths are considered only when direct bandwidth does
/// not suffice; candidates are intermediates with a free src->mid wavelength
/// (true state) and a free mid->dst wavelength (stale state); one candidate
/// is chosen uniformly at random (Valiant), at most
/// kMaxIntermediatesPerFlow times per flow.  A stale mis-pick is repaired by
/// the intermediate routing through a second intermediate using its own
/// current view; flows are pinned to their segments to preserve ordering.
class IndirectRouter {
 public:
  static constexpr int kMaxIntermediatesPerFlow = 64;

  IndirectRouter(WavelengthFabric& fabric, PiggybackView& view, std::uint64_t seed);

  /// Reserve capacity for a flow of `demand` from src to dst.
  [[nodiscard]] RouteResult route(int src, int dst, sim::Quanta demand);

  /// Release every segment of a previous RouteResult.
  void release(const RouteResult& result);

  /// Cumulative statistics.
  [[nodiscard]] std::uint64_t flows_routed() const { return flows_; }

 private:
  WavelengthFabric* fabric_;
  PiggybackView* view_;
  sim::Rng rng_;
  std::uint64_t flows_ = 0;

  /// Reserve up to `want` via one Valiant-chosen intermediate; returns the
  /// amount placed and appends segments.
  sim::Quanta try_indirect(int src, int dst, sim::Quanta want, RouteResult& out);
};

}  // namespace photorack::net
