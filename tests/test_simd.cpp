// Runtime SIMD dispatch (src/gemm/simd.hpp): the PF15_SIMD resolution
// rule, cpuid detection consistency, per-tier kernel-table correctness
// against the naive GEMM, scalar-vs-AVX2 numerical agreement, and the
// bitwise pack-layout contract shared by every tier.
//
// Cross-tier comparisons are tolerance-based BY DESIGN: the AVX2 tier
// uses FMA, which skips the intermediate rounding of a*b+c. For k
// accumulation steps on inputs in [-1, 1] the divergence is bounded by
// roughly k·eps·|row|·|col| — a few ULPs at the k <= 256 used here —
// while the scalar tier reproduces the pre-dispatch numerics bit for
// bit (asserted end-to-end by bench_simd --check-bitexact).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "gemm/gemm.hpp"
#include "gemm/simd.hpp"

namespace pf15 {
namespace {

using gemm::SimdLevel;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

/// Every tier the running machine can execute.
std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (gemm::simd_detected_level() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

TEST(SimdResolve, OffScalarAndZeroForceScalar) {
  for (const char* env : {"off", "scalar", "0"}) {
    EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx2, env), SimdLevel::kScalar)
        << env;
    EXPECT_EQ(gemm::simd_resolve(SimdLevel::kScalar, env),
              SimdLevel::kScalar)
        << env;
  }
}

TEST(SimdResolve, UnsetAndAffirmativeKeepDetected) {
  for (const char* env :
       {static_cast<const char*>(nullptr), "", "on", "auto", "garbage"}) {
    EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx2, env), SimdLevel::kAvx2);
    EXPECT_EQ(gemm::simd_resolve(SimdLevel::kScalar, env),
              SimdLevel::kScalar);
  }
}

TEST(SimdResolve, RequestingAvx2NeverExceedsDetected) {
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kScalar, "avx2"),
            SimdLevel::kScalar);
  EXPECT_EQ(gemm::simd_resolve(SimdLevel::kAvx2, "avx2"), SimdLevel::kAvx2);
}

TEST(SimdDetect, ActiveLevelIsResolvedDetection) {
  // simd_level() must be exactly the pure rule applied to the probe and
  // the live environment — the cache cannot drift from the rule.
  EXPECT_EQ(gemm::simd_level(),
            gemm::simd_resolve(gemm::simd_detected_level(),
                               std::getenv("PF15_SIMD")));
  EXPECT_LE(static_cast<int>(gemm::simd_level()),
            static_cast<int>(gemm::simd_detected_level()));
}

TEST(SimdDetect, IsaStringNamesTheActiveLevel) {
  EXPECT_EQ(gemm::simd_isa_string(), gemm::to_string(gemm::simd_level()));
  EXPECT_STREQ(gemm::to_string(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(gemm::to_string(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDetect, KernelTablesReportTheirTier) {
  EXPECT_EQ(gemm::gemm_kernels_for(SimdLevel::kScalar).level,
            SimdLevel::kScalar);
  EXPECT_EQ(gemm::gemm_kernels().level, gemm::simd_level());
  EXPECT_EQ(gemm::winograd_block_kernels().level, gemm::simd_level());
  if (gemm::simd_detected_level() == SimdLevel::kAvx2) {
    // Both paths are live in this one binary: the AVX2 table must carry
    // a genuinely different microkernel, not an aliased scalar one.
    EXPECT_EQ(gemm::gemm_kernels_for(SimdLevel::kAvx2).level,
              SimdLevel::kAvx2);
    EXPECT_NE(gemm::gemm_kernels_for(SimdLevel::kAvx2).microkernel,
              gemm::gemm_kernels_for(SimdLevel::kScalar).microkernel);
  }
}

// ---- per-tier GEMM correctness ---------------------------------------------

void expect_sgemm_matches_naive(SimdLevel level, bool trans_a, bool trans_b,
                                std::size_t m, std::size_t n, std::size_t k,
                                float alpha, float beta) {
  const std::size_t lda = trans_a ? m : k;
  const std::size_t ldb = trans_b ? k : n;
  const std::vector<float> a = random_vec((trans_a ? k : m) * lda, 0xA + m);
  const std::vector<float> b = random_vec((trans_b ? n : k) * ldb, 0xB + n);
  std::vector<float> c = random_vec(m * n, 0xC + k);
  std::vector<float> ref = c;
  gemm::sgemm_naive(trans_a, trans_b, m, n, k, alpha, a.data(), lda,
                    b.data(), ldb, beta, ref.data(), n);
  gemm::sgemm_at(level, trans_a, trans_b, m, n, k, alpha, a.data(), lda,
                 b.data(), ldb, beta, c.data(), n);
  const float tol = 2e-4f;
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], tol)
        << gemm::to_string(level) << " trans_a=" << trans_a
        << " trans_b=" << trans_b << " m=" << m << " n=" << n << " k=" << k
        << " element " << i;
  }
}

TEST(SimdGemm, EveryRunnableTierMatchesNaive) {
  for (const SimdLevel level : runnable_levels()) {
    // Exact register-tile multiples, ragged edges in every dimension,
    // and a K big enough to cross the KC=256 panel boundary.
    expect_sgemm_matches_naive(level, false, false, 12, 32, 8, 1.0f, 0.0f);
    expect_sgemm_matches_naive(level, false, false, 13, 29, 31, 1.0f, 0.0f);
    expect_sgemm_matches_naive(level, false, false, 7, 17, 300, 1.0f, 0.0f);
    expect_sgemm_matches_naive(level, true, false, 11, 19, 23, 0.5f, 1.0f);
    expect_sgemm_matches_naive(level, false, true, 9, 21, 27, 1.0f, 0.5f);
    expect_sgemm_matches_naive(level, true, true, 6, 16, 64, -1.0f, 2.0f);
    // Degenerate shapes must still apply beta.
    expect_sgemm_matches_naive(level, false, false, 5, 11, 0, 1.0f, 0.5f);
  }
}

TEST(SimdGemm, TiersAgreeToFmaTolerance) {
  if (gemm::simd_detected_level() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this machine: single-tier build";
  }
  const std::size_t m = 37, n = 53, k = 128;
  const std::vector<float> a = random_vec(m * k, 1);
  const std::vector<float> b = random_vec(k * n, 2);
  std::vector<float> c_scalar(m * n, 0.0f), c_avx2(m * n, 0.0f);
  gemm::sgemm_at(SimdLevel::kScalar, false, false, m, n, k, 1.0f, a.data(),
                 k, b.data(), n, 0.0f, c_scalar.data(), n);
  gemm::sgemm_at(SimdLevel::kAvx2, false, false, m, n, k, 1.0f, a.data(),
                 k, b.data(), n, 0.0f, c_avx2.data(), n);
  // FMA-vs-separate-rounding bound: ~k·eps per element on O(1) inputs.
  const float tol = static_cast<float>(k) * 1.2e-7f * 4.0f;
  for (std::size_t i = 0; i < c_scalar.size(); ++i) {
    ASSERT_NEAR(c_avx2[i], c_scalar[i], tol) << "element " << i;
  }
}

TEST(SimdGemm, PackLayoutIsBitwiseTierIndependent) {
  // The microkernels differ; the packed operand layout must not. A tier
  // that "improved" the pack format would silently break sgemm_at races
  // and PackedA's panels. Block sizes run below, at and above multiples
  // of 6 (MR), 8 (one ymm, the AVX2 packers' transpose width) and 16
  // (NR), at zero and non-zero offsets, both transposes; a sentinel
  // after the packed region must survive.
  constexpr std::size_t ld = 48;
  constexpr std::size_t kSentinel = 16;
  const std::vector<float> src = random_vec(ld * ld, 3);
  const auto& scalar = gemm::gemm_kernels_for(SimdLevel::kScalar);
  const auto& avx2 = gemm::gemm_kernels_for(SimdLevel::kAvx2);
  const auto round_up = [](std::size_t v, std::size_t to) {
    return (v + to - 1) / to * to;
  };
  const auto same = [&](const std::vector<float>& s,
                        const std::vector<float>& v, std::size_t packed) {
    for (std::size_t i = packed; i < packed + kSentinel; ++i) {
      if (s[i] != -7.0f || v[i] != -7.0f) return false;
    }
    return std::memcmp(s.data(), v.data(), s.size() * sizeof(float)) == 0;
  };
  const std::size_t edges[] = {1, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17, 24};
  for (const bool trans : {false, true}) {
    for (const std::size_t off : {0u, 3u}) {
      for (const std::size_t kc : edges) {
        for (const std::size_t mc : edges) {
          const std::size_t packed = round_up(mc, gemm::kGemmMR) * kc;
          std::vector<float> pa_s(packed + kSentinel, -7.0f);
          std::vector<float> pa_v = pa_s;
          scalar.pack_a(src.data(), ld, trans, off, off + 1, mc, kc,
                        pa_s.data());
          avx2.pack_a(src.data(), ld, trans, off, off + 1, mc, kc,
                      pa_v.data());
          EXPECT_TRUE(same(pa_s, pa_v, packed))
              << "pack_a trans " << trans << " off " << off << " mc " << mc
              << " kc " << kc;
        }
        for (const std::size_t nc : edges) {
          const std::size_t packed = kc * round_up(nc, gemm::kGemmNR);
          std::vector<float> pb_s(packed + kSentinel, -7.0f);
          std::vector<float> pb_v = pb_s;
          scalar.pack_b(src.data(), ld, trans, off + 1, off, kc, nc,
                        pb_s.data());
          avx2.pack_b(src.data(), ld, trans, off + 1, off, kc, nc,
                      pb_v.data());
          EXPECT_TRUE(same(pb_s, pb_v, packed))
              << "pack_b trans " << trans << " off " << off << " kc " << kc
              << " nc " << nc;
        }
      }
    }
  }
}

// ---- Winograd block transforms across tiers --------------------------------

TEST(SimdWinograd, BlockTransformsAgreeAcrossTiers) {
  if (gemm::simd_detected_level() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this machine: single-tier build";
  }
  const auto& s = gemm::winograd_block_kernels_for(SimdLevel::kScalar);
  const auto& v = gemm::winograd_block_kernels_for(SimdLevel::kAvx2);
  constexpr std::size_t B = gemm::kWinoBlockLanes;
  const struct {
    void (*scalar)(const float*, float*);
    void (*avx2)(const float*, float*);
    std::size_t in, out;
    const char* name;
  } cases[] = {
      {s.f2_input, v.f2_input, 16 * B, 16 * B, "f2_input"},
      {s.f2_output, v.f2_output, 16 * B, 4 * B, "f2_output"},
      {s.f2_dy, v.f2_dy, 4 * B, 16 * B, "f2_dy"},
      {s.f4_input, v.f4_input, 36 * B, 36 * B, "f4_input"},
      {s.f4_output, v.f4_output, 36 * B, 16 * B, "f4_output"},
      {s.f4_dy, v.f4_dy, 16 * B, 36 * B, "f4_dy"},
  };
  for (const auto& c : cases) {
    const std::vector<float> in = random_vec(c.in, 0x51D + c.in);
    std::vector<float> out_s(c.out, -7.0f), out_v(c.out, -7.0f);
    c.scalar(in.data(), out_s.data());
    c.avx2(in.data(), out_v.data());
    for (std::size_t i = 0; i < c.out; ++i) {
      // The transforms are short add/sub/scale chains: agreement stays
      // within a few ULPs even if one side is auto-vectorized with FMA.
      ASSERT_NEAR(out_v[i], out_s[i], 1e-5f) << c.name << " pos " << i;
    }
  }
}

}  // namespace
}  // namespace pf15
