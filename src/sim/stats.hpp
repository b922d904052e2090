#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace photorack::sim {

/// Numerically stable streaming moments (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson product-moment correlation coefficient of two equally long series.
/// This is the statistic the paper uses for Figs 7 and 10.  Returns 0 for
/// degenerate inputs (fewer than two points or zero variance).
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Linear interpolation percentile; q in [0, 100].  Copies and sorts.
/// Throws std::invalid_argument on empty input: a percentile of nothing has
/// no value, and the old 0.0 placeholder let consumers (e.g. iso-perf
/// provisioning at p99) silently size against a phantom zero demand.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Arithmetic mean over a span (0 if empty).
[[nodiscard]] double mean_of(std::span<const double> v);
/// Geometric mean.  Defined only for strictly positive inputs: throws
/// std::invalid_argument on empty input and on any element <= 0 (the old
/// behavior clamped those to 1e-300, silently dragging the result toward
/// zero instead of surfacing the bad sample).
[[nodiscard]] double geomean_of(std::span<const double> v);
[[nodiscard]] double max_of(std::span<const double> v);

/// Streaming quantile sketch with a bounded RELATIVE error, for tail
/// telemetry (p50/p99/p999 of job wait, slowdown, flow-completion time) at
/// millions of samples in O(1) memory.
///
/// DDSketch-style log-bucketed rank sketch: a non-negative value x maps to
/// bucket ceil(log(x) / log(gamma)) with gamma = (1+a)/(1-a), so every
/// bucket's representative value (the geometric midpoint) is within
/// relative error `a` of anything stored in it.  Values in [0, 1e-12) land
/// in a dedicated zero bucket and report as exactly 0.  Bucket counts are
/// integers, so merge() is exact, associative and commutative — merging
/// per-shard sketches in any order yields bit-identical quantiles, the
/// property campaign sweeps need for --jobs-independent output.
///
/// Memory is bounded by the value range, not the sample count: at the
/// default a = 0.01, values spanning 1e-12..1e12 fit in < 2800 buckets.
///
/// Contract: add() accepts finite values >= 0 and throws
/// std::invalid_argument otherwise; quantile() throws std::logic_error on
/// an empty sketch (use quantile_or() where empty is an expected state);
/// merge() requires both sketches to share the same relative error.
class QuantileSketch {
 public:
  explicit QuantileSketch(double relative_error = 0.01);

  void add(double x);
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double relative_error() const { return alpha_; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  /// Quantile for q in [0, 100] (same convention as sim::percentile).  The
  /// result is clamped into [min(), max()] and is within relative_error()
  /// of the exact rank statistic.  Throws std::logic_error when empty.
  [[nodiscard]] double quantile(double q) const;
  /// quantile(q), or `fallback` when the sketch is empty.
  [[nodiscard]] double quantile_or(double q, double fallback) const;

 private:
  double alpha_;
  double gamma_;
  double log_gamma_;
  std::uint64_t n_ = 0;
  std::uint64_t zero_count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<std::int32_t, std::uint64_t> buckets_;  // ordered: rank walks keys
};

}  // namespace photorack::sim
