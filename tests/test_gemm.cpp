// Blocked SGEMM vs the naive reference, across shapes, transposes, and
// alpha/beta combinations; plus the instrumented FLOP counter and the
// kernel scratch pool.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gemm/gemm.hpp"
#include "gemm/scratch.hpp"

namespace pf15::gemm {
namespace {

std::vector<float> random_matrix(std::size_t n, Rng& rng) {
  std::vector<float> m(n);
  for (auto& v : m) v = rng.uniform(-1.0f, 1.0f);
  return m;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol = 2e-3f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at " << i;
  }
}

struct GemmCase {
  std::size_t m, n, k;
  bool ta, tb;
  float alpha, beta;
};

class GemmShapes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmShapes, MatchesNaive) {
  const GemmCase c = GetParam();
  Rng rng(101);
  const std::size_t lda = c.ta ? c.m : c.k;
  const std::size_t ldb = c.tb ? c.k : c.n;
  const auto a = random_matrix((c.ta ? c.k : c.m) * lda, rng);
  const auto b = random_matrix((c.tb ? c.n : c.k) * ldb, rng);
  auto c_ref = random_matrix(c.m * c.n, rng);
  auto c_opt = c_ref;  // same starting C so beta paths match
  sgemm_naive(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
              ldb, c.beta, c_ref.data(), c.n);
  sgemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
        c.beta, c_opt.data(), c.n);
  expect_close(c_ref, c_opt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(
        // Small exact-tile and ragged-edge shapes.
        GemmCase{6, 16, 8, false, false, 1.0f, 0.0f},
        GemmCase{7, 17, 9, false, false, 1.0f, 0.0f},
        GemmCase{1, 1, 1, false, false, 1.0f, 0.0f},
        GemmCase{5, 3, 300, false, false, 1.0f, 0.0f},
        // Shapes crossing the MC/KC/NC blocking boundaries.
        GemmCase{97, 65, 257, false, false, 1.0f, 0.0f},
        GemmCase{192, 64, 512, false, false, 1.0f, 0.0f},
        GemmCase{100, 2100, 70, false, false, 1.0f, 0.0f},
        // Transposes.
        GemmCase{33, 29, 41, true, false, 1.0f, 0.0f},
        GemmCase{33, 29, 41, false, true, 1.0f, 0.0f},
        GemmCase{33, 29, 41, true, true, 1.0f, 0.0f},
        // alpha / beta handling.
        GemmCase{20, 30, 40, false, false, 0.5f, 1.0f},
        GemmCase{20, 30, 40, false, false, 2.0f, -0.5f},
        GemmCase{20, 30, 40, true, true, -1.0f, 2.0f},
        // Deep-learning typical: tall-skinny (small N = minibatch).
        GemmCase{128, 4, 1152, false, false, 1.0f, 0.0f},
        GemmCase{128, 8, 1152, false, true, 1.0f, 0.0f}));

TEST(Gemm, DegenerateKActsAsScale) {
  std::vector<float> c_data{1.0f, 2.0f, 3.0f, 4.0f};
  sgemm(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 2.0f,
        c_data.data(), 2);
  EXPECT_FLOAT_EQ(c_data[0], 2.0f);
  EXPECT_FLOAT_EQ(c_data[3], 8.0f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(3);
  const auto a = random_matrix(4 * 5, rng);
  const auto b = random_matrix(5 * 6, rng);
  std::vector<float> c_data(4 * 6,
                            std::numeric_limits<float>::quiet_NaN());
  sgemm(false, false, 4, 6, 5, 1.0f, a.data(), 5, b.data(), 6, 0.0f,
        c_data.data(), 6);
  for (float v : c_data) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gemm, ParallelMatchesSerial) {
  Rng rng(7);
  const std::size_t m = 300, n = 300, k = 300;
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        c1.data(), n);
  sgemm_parallel(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                 0.0f, c2.data(), n);
  expect_close(c1, c2, 1e-4f);
}

TEST(Gemm, FlopFormula) {
  EXPECT_EQ(flops(2, 3, 4), 48u);
  EXPECT_EQ(flops(1, 1, 1), 2u);
}

TEST(Gemm, ExecutedFlopCounterAdvances) {
  reset_executed_flops();
  Rng rng(9);
  const auto a = random_matrix(8 * 8, rng);
  const auto b = random_matrix(8 * 8, rng);
  std::vector<float> c_data(64, 0.0f);
  sgemm(false, false, 8, 8, 8, 1.0f, a.data(), 8, b.data(), 8, 0.0f,
        c_data.data(), 8);
  EXPECT_EQ(executed_flops(), flops(8, 8, 8));
  sgemm(false, false, 8, 8, 8, 1.0f, a.data(), 8, b.data(), 8, 0.0f,
        c_data.data(), 8);
  EXPECT_EQ(executed_flops(), 2 * flops(8, 8, 8));
}

TEST(Gemm, LeadingDimensionLargerThanRow) {
  // A is 3x4 stored with lda = 6 (padded rows).
  Rng rng(11);
  std::vector<float> a(3 * 6), b(4 * 5), c_ref(3 * 5, 0.0f),
      c_opt(3 * 5, 0.0f);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  sgemm_naive(false, false, 3, 5, 4, 1.0f, a.data(), 6, b.data(), 5, 0.0f,
              c_ref.data(), 5);
  sgemm(false, false, 3, 5, 4, 1.0f, a.data(), 6, b.data(), 5, 0.0f,
        c_opt.data(), 5);
  expect_close(c_ref, c_opt);
}

// A small lease between two large ones must not free the large buffer:
// the next large lease gets the same storage back, contents intact (a
// re-allocation would also re-zero it).
TEST(ScratchLease, AlternatingSizesReuseTheLargeBuffer) {
  constexpr std::size_t kLarge = std::size_t{1} << 18;
  constexpr std::size_t kSmall = 300;
  float* large = nullptr;
  {
    ScratchLease lease(kLarge);
    large = lease.data();
    large[kLarge - 1] = 42.0f;
  }
  for (int round = 0; round < 3; ++round) {
    {
      ScratchLease small(kSmall);
      small.data()[0] = 1.0f;
    }
    ScratchLease lease(kLarge);
    EXPECT_EQ(lease.data(), large) << "round " << round;
    EXPECT_EQ(lease.data()[kLarge - 1], 42.0f) << "round " << round;
  }
}

// Nested leases on one thread never share storage.
TEST(ScratchLease, NestedLeasesGetDistinctBuffers) {
  ScratchLease outer(1000);
  ScratchLease inner(10);
  EXPECT_NE(outer.data(), inner.data());
}

// A one-off giant buffer is still released once a small lease takes it.
TEST(ScratchLease, GiantBufferIsReleasedBySmallLease) {
  const std::size_t giant = 4 * detail::kScratchKeepFloats + 1;
  { ScratchLease lease(giant); }
  { ScratchLease small(1000); }
  for (const auto& buf : detail::scratch_pool()) {
    EXPECT_LT(buf->capacity(), giant);
  }
}

}  // namespace
}  // namespace pf15::gemm
