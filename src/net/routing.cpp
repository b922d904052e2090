#include "net/routing.hpp"

#include <algorithm>

namespace photorack::net {

IndirectRouter::IndirectRouter(WavelengthFabric& fabric, PiggybackView& view,
                               std::uint64_t seed)
    : fabric_(&fabric), view_(&view), rng_(seed) {}

RouteResult IndirectRouter::route(int src, int dst, sim::Quanta demand) {
  RouteResult out;
  out.requested = demand;
  ++flows_;

  // 1. Direct wavelengths first (§IV-A: indirect paths are considered only
  //    if the single-hop bandwidth does not suffice).
  const sim::Quanta direct = fabric_->allocate_direct(src, dst, demand);
  if (direct > 0) {
    out.direct = direct;
    out.segments.push_back({src, dst, direct});
  }

  // 2. Spill the remainder over Valiant intermediates.
  sim::Quanta remaining = demand - direct;
  while (remaining > 0 && out.intermediates_used < kMaxIntermediatesPerFlow) {
    const sim::Quanta placed = try_indirect(src, dst, remaining, out);
    if (placed == 0) break;
    remaining -= placed;
  }
  out.indirect = demand - direct - remaining;
  out.blocked = remaining;
  return out;
}

sim::Quanta IndirectRouter::try_indirect(int src, int dst, sim::Quanta want,
                                         RouteResult& out) {
  // Candidate intermediates: free src->mid in the source's true local view,
  // free mid->dst in the piggybacked view.
  std::vector<int> candidates;
  candidates.reserve(static_cast<std::size_t>(fabric_->mcms()));
  for (int mid = 0; mid < fabric_->mcms(); ++mid) {
    if (mid == src || mid == dst) continue;
    if (fabric_->free_direct(src, mid) == 0) continue;
    if (view_->stale_free_direct(mid, dst) == 0) continue;
    candidates.push_back(mid);
  }
  if (candidates.empty()) return 0;

  const int mid = candidates[rng_.below(candidates.size())];
  ++out.intermediates_used;

  // First leg always succeeds (source state is current).
  const sim::Quanta leg1 = fabric_->allocate_direct(src, mid, want);

  // Second leg uses the *true* fabric: a stale view may have promised
  // capacity that is no longer there.
  const sim::Quanta leg2 = fabric_->allocate_direct(mid, dst, leg1);
  sim::Quanta placed = leg2;
  sim::Quanta stranded = leg1 - leg2;

  if (stranded > 0) {
    ++out.stale_mispicks;
    // The intermediate repairs the shortfall through a second intermediate
    // chosen with its own current view (§IV-A's two-stage fallback).
    for (int mid2 = 0; mid2 < fabric_->mcms() && stranded > 0; ++mid2) {
      if (mid2 == mid || mid2 == dst || mid2 == src) continue;
      const sim::Quanta hop1 = fabric_->free_direct(mid, mid2);
      const sim::Quanta hop2 = fabric_->free_direct(mid2, dst);
      if (hop1 == 0 || hop2 == 0) continue;
      // Both legs were just read as free and are distinct pairs, so each
      // grants exactly `moved` — integer capacity leaves no shortfall.
      const sim::Quanta moved = std::min({stranded, hop1, hop2});
      fabric_->allocate_direct(mid, mid2, moved);
      fabric_->allocate_direct(mid2, dst, moved);
      out.segments.push_back({mid, mid2, moved});
      out.segments.push_back({mid2, dst, moved});
      ++out.second_hops;
      placed += moved;
      stranded -= moved;
    }
    // Whatever could not be repaired is returned to the first leg.
    if (stranded > 0) fabric_->release_direct(src, mid, stranded);
  }

  if (placed > 0) {
    out.segments.push_back({src, mid, placed});
    if (leg2 > 0) out.segments.push_back({mid, dst, leg2});
  }
  return placed;
}

void IndirectRouter::release(const RouteResult& result) {
  for (const auto& seg : result.segments)
    fabric_->release_direct(seg.from, seg.to, seg.bw);
}

}  // namespace photorack::net
