#include "traffic/arrival.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace photorack::traffic {
namespace {

ArrivalConfig config_of(ArrivalKind kind) {
  ArrivalConfig cfg;
  cfg.kind = kind;
  return cfg;
}

/// Mean inter-arrival gap over `n` draws, advancing a simulated clock the
/// way RackCosim does.
double mean_gap_ms(ArrivalProcess& process, sim::Rng& rng, int n) {
  sim::TimePs now = 0;
  sim::RunningStats gaps;
  for (int i = 0; i < n; ++i) {
    const sim::TimePs gap = process.next_gap(now, rng);
    gaps.add(static_cast<double>(gap) / static_cast<double>(sim::kPsPerMs));
    now += gap;
  }
  return gaps.mean();
}

// ---------------------------------------------------------------------------
// Poisson: byte-identical to the historical scaled-gap layout.
// ---------------------------------------------------------------------------

TEST(PoissonArrivals, ReproducesScaledGapStreamByteForByte) {
  // The process must consume exactly one exponential(1.0) per gap and apply
  // the same arithmetic the pre-engine RackCosim inlined; two generators
  // cloned from one seed must agree on every single gap.
  const double rate = 4.0;
  sim::Rng process_rng(123);
  sim::Rng reference_rng(123);
  auto process = make_arrival_process(config_of(ArrivalKind::kPoisson), rate);
  sim::TimePs now = 0;
  for (int i = 0; i < 10000; ++i) {
    const double unit = reference_rng.exponential(1.0);
    const auto expected = static_cast<sim::TimePs>(
        unit * static_cast<double>(sim::kPsPerMs) / rate);
    const sim::TimePs got = process->next_gap(now, process_rng);
    ASSERT_EQ(got, expected) << "gap " << i;
    now += got;
  }
}

TEST(PoissonArrivals, MeanRateMatchesConfig) {
  sim::Rng rng(7);
  auto process = make_arrival_process(config_of(ArrivalKind::kPoisson), 8.0);
  // 1M draws: the sample mean of Exp(1/8 ms) is within ~0.4% at 3 sigma.
  EXPECT_NEAR(mean_gap_ms(*process, rng, 1'000'000), 1.0 / 8.0, 0.005 * (1.0 / 8.0));
}

// ---------------------------------------------------------------------------
// MMPP: same long-run mean rate, strictly burstier.
// ---------------------------------------------------------------------------

TEST(MmppArrivals, LongRunMeanRateMatchesBaseRate) {
  sim::Rng rng(19);
  auto process = make_arrival_process(config_of(ArrivalKind::kMmpp), 4.0);
  // Count arrivals over a long window rather than averaging gaps: gap means
  // are biased toward the ON state (more gaps happen there by construction);
  // the rate contract is arrivals per unit TIME.
  sim::TimePs now = 0;
  std::uint64_t arrivals = 0;
  // ~4000 on/off cycles (default dwells 10/90 ms): the rate estimator's
  // noise is dominated by cycle-count fluctuations, ~1.3% std here.
  const sim::TimePs window = 400'000 * sim::kPsPerMs;
  while (now < window) {
    now += process->next_gap(now, rng);
    ++arrivals;
  }
  const double rate = static_cast<double>(arrivals) /
                      (static_cast<double>(now) / static_cast<double>(sim::kPsPerMs));
  EXPECT_NEAR(rate, 4.0, 0.15);
}

TEST(MmppArrivals, BurstierThanPoisson) {
  // Index of dispersion of counts over fixed windows: ~1 for Poisson, > 1
  // for any on/off modulated stream worth the name.
  auto dispersion = [](ArrivalProcess& process, sim::Rng& rng) {
    const sim::TimePs window = 10 * sim::kPsPerMs;
    sim::RunningStats counts;
    sim::TimePs now = 0;
    sim::TimePs next = process.next_gap(now, rng);
    for (int w = 0; w < 4000; ++w) {
      const sim::TimePs end = (static_cast<sim::TimePs>(w) + 1) * window;
      double in_window = 0;
      while (now + next < end) {
        now += next;
        next = process.next_gap(now, rng);
        ++in_window;
      }
      counts.add(in_window);
    }
    return counts.variance() / counts.mean();
  };
  sim::Rng rng_poisson(31), rng_mmpp(31);
  auto poisson = make_arrival_process(config_of(ArrivalKind::kPoisson), 4.0);
  auto mmpp = make_arrival_process(config_of(ArrivalKind::kMmpp), 4.0);
  const double d_poisson = dispersion(*poisson, rng_poisson);
  const double d_mmpp = dispersion(*mmpp, rng_mmpp);
  EXPECT_NEAR(d_poisson, 1.0, 0.2);
  EXPECT_GT(d_mmpp, 2.0 * d_poisson);
}

// ---------------------------------------------------------------------------
// Diurnal: same mean rate, rate actually modulated across the period.
// ---------------------------------------------------------------------------

TEST(DiurnalArrivals, LongRunMeanRateMatchesBaseRate) {
  sim::Rng rng(23);
  auto process = make_arrival_process(config_of(ArrivalKind::kDiurnal), 4.0);
  sim::TimePs now = 0;
  std::uint64_t arrivals = 0;
  // Integer number of periods so the sinusoid integrates to zero.
  const sim::TimePs window = 250 * (200 * sim::kPsPerMs);
  while (now < window) {
    now += process->next_gap(now, rng);
    ++arrivals;
  }
  const double rate = static_cast<double>(arrivals) /
                      (static_cast<double>(now) / static_cast<double>(sim::kPsPerMs));
  EXPECT_NEAR(rate, 4.0, 0.15);
}

TEST(DiurnalArrivals, PeakHalfOfPeriodOutdrawsTroughHalf) {
  sim::Rng rng(29);
  auto process = make_arrival_process(config_of(ArrivalKind::kDiurnal), 4.0);
  const sim::TimePs period = 200 * sim::kPsPerMs;  // default diurnal_period
  std::uint64_t in_first_half = 0, in_second_half = 0;
  sim::TimePs now = 0;
  while (now < 200 * period) {
    now += process->next_gap(now, rng);
    (now % period < period / 2 ? in_first_half : in_second_half)++;
  }
  // rate(t) = 4 * (1 + 0.75 sin): sin > 0 over the first half-period.
  EXPECT_GT(static_cast<double>(in_first_half),
            1.5 * static_cast<double>(in_second_half));
}

// ---------------------------------------------------------------------------
// Trace replay: deterministic, RNG-free, exhaustion-safe.
// ---------------------------------------------------------------------------

TEST(TraceArrivals, ReplaysTimestampsExactlyThenExhausts) {
  sim::Rng rng(1);
  auto process = make_trace_process(
      {1 * sim::kPsPerMs, 3 * sim::kPsPerMs, 3 * sim::kPsPerMs, 10 * sim::kPsPerMs});
  sim::TimePs now = 0;
  EXPECT_EQ(process->next_gap(now, rng), 1 * sim::kPsPerMs);
  now = 1 * sim::kPsPerMs;
  EXPECT_EQ(process->next_gap(now, rng), 2 * sim::kPsPerMs);
  now = 3 * sim::kPsPerMs;
  EXPECT_EQ(process->next_gap(now, rng), 0);  // simultaneous arrival
  EXPECT_EQ(process->next_gap(now, rng), 7 * sim::kPsPerMs);
  now = 10 * sim::kPsPerMs;
  EXPECT_EQ(process->next_gap(now, rng), kNoMoreArrivals);
  EXPECT_EQ(process->next_gap(now, rng), kNoMoreArrivals);  // stays exhausted
  // The sentinel must survive the cosim's `sim_time - now` comparison
  // without overflow: it is far below max even after adding any horizon.
  EXPECT_LT(kNoMoreArrivals, std::numeric_limits<sim::TimePs>::max() / 2);
}

TEST(TraceArrivals, LoadsFileSkipsCommentsRejectsGarbage) {
  const std::string good = ::testing::TempDir() + "arrivals_good.txt";
  {
    std::ofstream out(good);
    out << "# arrival timestamps in ms\n"
           "0.5\n"
           "\n"
           "  2.25  \n"
           "10\n";
  }
  const auto times = load_arrival_trace(good);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], sim::kPsPerMs / 2);
  EXPECT_EQ(times[1], 2 * sim::kPsPerMs + sim::kPsPerMs / 4);
  EXPECT_EQ(times[2], 10 * sim::kPsPerMs);
  std::remove(good.c_str());

  const std::string bad = ::testing::TempDir() + "arrivals_bad.txt";
  {
    std::ofstream out(bad);
    out << "1.5\n2.5ms\n";
  }
  EXPECT_THROW(load_arrival_trace(bad), std::runtime_error);
  std::remove(bad.c_str());

  // 1e10 ms is past the TimePs range: rejected at its line, not converted.
  const std::string huge = ::testing::TempDir() + "arrivals_huge.txt";
  {
    std::ofstream out(huge);
    out << "1.5\n1e10\n";
  }
  try {
    (void)load_arrival_trace(huge);
    ADD_FAILURE() << "expected an out-of-range timestamp to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(huge + ":2"), std::string::npos) << e.what();
  }
  std::remove(huge.c_str());

  EXPECT_THROW(load_arrival_trace("/nonexistent/trace.txt"), std::runtime_error);
}

TEST(TraceArrivals, RejectsUnsortedAndNegativeTimestamps) {
  EXPECT_THROW(make_trace_process({5 * sim::kPsPerMs, 1 * sim::kPsPerMs}),
               std::invalid_argument);
  EXPECT_THROW(make_trace_process({-1}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Factory validation.
// ---------------------------------------------------------------------------

TEST(ArrivalFactory, RejectsInvalidShapes) {
  EXPECT_THROW(make_arrival_process(config_of(ArrivalKind::kPoisson), 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_arrival_process(config_of(ArrivalKind::kPoisson), -4.0),
               std::invalid_argument);

  ArrivalConfig mmpp = config_of(ArrivalKind::kMmpp);
  mmpp.burst_rate_mult = 0.5;  // ON state slower than base: not a burst
  EXPECT_THROW(make_arrival_process(mmpp, 4.0), std::invalid_argument);
  mmpp = config_of(ArrivalKind::kMmpp);
  mmpp.burst_fraction = 0.0;
  EXPECT_THROW(make_arrival_process(mmpp, 4.0), std::invalid_argument);
  mmpp = config_of(ArrivalKind::kMmpp);
  mmpp.burst_rate_mult = 8.0;
  mmpp.burst_fraction = 0.2;  // 8 * 0.2 > 1: OFF rate would be negative
  EXPECT_THROW(make_arrival_process(mmpp, 4.0), std::invalid_argument);

  ArrivalConfig diurnal = config_of(ArrivalKind::kDiurnal);
  diurnal.diurnal_amplitude = 1.0;  // rate would touch zero-crossing issues
  EXPECT_THROW(make_arrival_process(diurnal, 4.0), std::invalid_argument);
  diurnal = config_of(ArrivalKind::kDiurnal);
  diurnal.diurnal_period = 0;
  EXPECT_THROW(make_arrival_process(diurnal, 4.0), std::invalid_argument);

  ArrivalConfig trace = config_of(ArrivalKind::kTrace);
  EXPECT_THROW(make_arrival_process(trace, 4.0), std::invalid_argument);
}

TEST(ArrivalFactory, CodecRoundTripsEveryKind) {
  const auto& codec = arrival_kind_codec();
  for (const auto& [name, kind] : codec.items()) {
    EXPECT_EQ(codec.parse(name), kind);
    EXPECT_EQ(codec.name(kind), name);
  }
  EXPECT_THROW(codec.parse("fractal"), std::invalid_argument);
}

}  // namespace
}  // namespace photorack::traffic
