#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/result_sink.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep_grid.hpp"

namespace photorack::scenario {

/// A named, reusable sweep definition: declarative axes plus the evaluator
/// that turns one ScenarioSpec into result rows.
///
/// Axes are declared as data, not a grid-building function: each axis is
/// either a config-registry path ("cpusim.dram.extra_ns" — validated,
/// range-checked, resolved into typed config structs by
/// ScenarioSpec::resolve<T>()) or a free axis the evaluator interprets
/// ("bench", "app", "policy").  Because the axes are registry paths, ANY
/// registered knob can be swept or pinned via `--set path=value` without
/// the campaign author having anticipated it.
///
/// The built-in registry reproduces the paper's figures and tables (fig6,
/// fig9, table3, sec6c, ...) from this single shape; custom studies define
/// their own Campaign value and hand it to SweepRunner directly.
struct Campaign {
  std::string name;
  std::string description;
  std::string paper_ref;
  std::vector<std::string> columns;
  /// Declarative default sweep axes, in grid order.
  std::vector<Axis> axes;
  /// Evaluate one scenario.  Must be pure: no shared mutable state, all
  /// randomness seeded from the spec, so sweeps parallelize bit-identically.
  /// May return several rows (table3 emits one row per chip type).
  std::function<std::vector<ResultRow>(const ScenarioSpec&)> evaluate;
  /// The recording a spec replays, or "" if it shares nothing.  SweepRunner
  /// runs all specs with one nonempty key on one worker, in grid order, so
  /// an evaluator can keep its last recording per thread instead of behind
  /// a shared cache.  Unset: every spec is independent.
  std::function<std::string(const ScenarioSpec&)> work_key = {};

  /// The default grid built from `axes` (validating registry paths).
  [[nodiscard]] SweepGrid default_grid() const;
};

/// Built-in campaign catalog, in presentation order.
[[nodiscard]] const std::vector<Campaign>& campaigns();

/// Lookup by name; throws std::out_of_range listing the known names.
[[nodiscard]] const Campaign& campaign_by_name(const std::string& name);

}  // namespace photorack::scenario
