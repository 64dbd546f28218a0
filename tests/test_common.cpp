// Unit tests for src/common: RNG determinism and distributions, timers,
// aligned buffers, error machinery. The task scheduler has its own suite
// (test_task_scheduler.cpp).
#include <gtest/gtest.h>

#include "check_failure.hpp"

#include <cmath>
#include <set>

#include "common/aligned.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace pf15 {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 0), b(123, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsDiffer) {
  Rng a(123, 0), b(123, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // every value hit
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  for (double mean : {0.5, 3.0, 50.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05);
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(AlignedBuffer, SixtyFourByteAlignment) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 1000u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<float> a(10);
  a[0] = 42.0f;
  AlignedBuffer<float> b(std::move(a));
  EXPECT_EQ(b[0], 42.0f);
  EXPECT_EQ(b.size(), 10u);
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(IterationTimeline, PeakIsMinTime) {
  IterationTimeline t;
  t.record(0.5);
  t.record(0.2);
  t.record(0.9);
  EXPECT_DOUBLE_EQ(t.min_time(), 0.2);
}

TEST(IterationTimeline, BestWindowMean) {
  IterationTimeline t;
  for (double v : {1.0, 0.5, 0.4, 0.3, 2.0}) t.record(v);
  // Best 3-window is {0.5, 0.4, 0.3}.
  EXPECT_NEAR(t.best_window_mean(3), 0.4, 1e-12);
  // Window of 1 equals the minimum.
  EXPECT_NEAR(t.best_window_mean(1), 0.3, 1e-12);
}

TEST(IterationTimeline, MeanTime) {
  IterationTimeline t;
  t.record(1.0);
  t.record(3.0);
  EXPECT_DOUBLE_EQ(t.mean_time(), 2.0);
}

TEST(WallTimer, MeasuresElapsed) {
  WallTimer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Errors, ConfigErrorCarriesMessage) {
  try {
    throw ConfigError("bad groups");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "bad groups");
  }
}

TEST(Errors, CheckThrowsError) {
  PF15_EXPECT_CHECK_FAIL(PF15_CHECK(1 == 2), "PF15_CHECK failed");
}

}  // namespace
}  // namespace pf15
