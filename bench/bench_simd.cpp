// Scalar-vs-AVX2 GEMM race and the SIMD acceptance gates.
//
// Three modes, all exercised by scripts/verify.sh:
//   (default)          A/B sweep of sgemm_at over both kernel tiers with
//                      GFLOP/s per shape; --json PATH records it.
//   --gate             the perf acceptance: on AVX2 hardware the SIMD
//                      tier must beat scalar by >= 1.2x on the large
//                      (1024-class) shapes, else exit 12. Without AVX2
//                      the gate self-skips LOUDLY and exits 0 — a scalar
//                      machine cannot prove or disprove the speedup.
//   --check-bitexact   the compatibility acceptance: under PF15_SIMD=off
//                      the library sgemm must reproduce the pre-dispatch
//                      implementation BIT FOR BIT. The reference here is
//                      a verbatim replica of the old packed GEMM (same
//                      blocking, same loop order, portable flags), so
//                      any drift in the scalar tier — reordered
//                      accumulation, sneaky FMA contraction — exits 12.
//   --expect-level=L   asserts the runtime dispatch resolved to L
//                      ("scalar"/"avx2"); exit 12 otherwise. verify.sh
//                      uses it to prove PF15_SIMD=off really downshifts.
//
// Usage: bench_simd [--json PATH] [--reps N] [--gate] [--check-bitexact]
//                   [--expect-level=scalar|avx2]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gemm/gemm.hpp"
#include "gemm/simd.hpp"
#include "perf/json.hpp"
#include "perf/report.hpp"

namespace {

using namespace pf15;
using gemm::SimdLevel;

constexpr int kExitSimdGate = 12;

// ---- pre-dispatch replica (the --check-bitexact reference) -----------------
// Copied from src/gemm/gemm.cpp as of the last scalar-only revision and
// frozen here. Compiled portably (no -mavx2/-mfma), so it produces the
// exact bit pattern the library produced before the kernel tier existed.
namespace replica {

constexpr std::size_t MR = 6;
constexpr std::size_t NR = 16;
constexpr std::size_t MC = 96;
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 2048;

inline float load_a(const float* a, std::size_t lda, bool trans,
                    std::size_t row, std::size_t col) {
  return trans ? a[col * lda + row] : a[row * lda + col];
}

inline float load_b(const float* b, std::size_t ldb, bool trans,
                    std::size_t row, std::size_t col) {
  return trans ? b[col * ldb + row] : b[row * ldb + col];
}

void pack_a(const float* a, std::size_t lda, bool trans, std::size_t row0,
            std::size_t col0, std::size_t mc, std::size_t kc, float* dst) {
  for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
    const std::size_t mr = std::min(MR, mc - i0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        *dst++ = load_a(a, lda, trans, row0 + i0 + i, col0 + p);
      }
      for (std::size_t i = mr; i < MR; ++i) *dst++ = 0.0f;
    }
  }
}

void pack_b(const float* b, std::size_t ldb, bool trans, std::size_t row0,
            std::size_t col0, std::size_t kc, std::size_t nc, float* dst) {
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t nr = std::min(NR, nc - j0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < nr; ++j) {
        *dst++ = load_b(b, ldb, trans, row0 + p, col0 + j0 + j);
      }
      for (std::size_t j = nr; j < NR; ++j) *dst++ = 0.0f;
    }
  }
}

inline void microkernel(std::size_t kc, const float* __restrict__ pa,
                        const float* __restrict__ pb, float acc[MR][NR]) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict__ arow = pa + p * MR;
    const float* __restrict__ brow = pb + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      const float aval = arow[i];
      for (std::size_t j = 0; j < NR; ++j) {
        acc[i][j] += aval * brow[j];
      }
    }
  }
}

void macro_block(std::size_t mc, std::size_t nc, std::size_t kc, float alpha,
                 const float* packed_a, const float* packed_b, float beta,
                 bool first_k_block, float* c, std::size_t ldc) {
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t nr = std::min(NR, nc - j0);
    const float* pb = packed_b + (j0 / NR) * (kc * NR);
    for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
      const std::size_t mr = std::min(MR, mc - i0);
      const float* pa = packed_a + (i0 / MR) * (kc * MR);
      float acc[MR][NR] = {};
      microkernel(kc, pa, pb, acc);
      float* cblk = c + i0 * ldc + j0;
      if (first_k_block) {
        if (beta == 0.0f) {
          for (std::size_t i = 0; i < mr; ++i) {
            for (std::size_t j = 0; j < nr; ++j) {
              cblk[i * ldc + j] = alpha * acc[i][j];
            }
          }
        } else {
          for (std::size_t i = 0; i < mr; ++i) {
            for (std::size_t j = 0; j < nr; ++j) {
              cblk[i * ldc + j] =
                  beta * cblk[i * ldc + j] + alpha * acc[i][j];
            }
          }
        }
      } else {
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nr; ++j) {
            cblk[i * ldc + j] += alpha * acc[i][j];
          }
        }
      }
    }
  }
}

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    for (std::size_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      if (beta == 0.0f) {
        std::memset(row, 0, n * sizeof(float));
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
    return;
  }
  AlignedBuffer<float> packed_a(MC * KC);
  AlignedBuffer<float> packed_b(KC * NC);
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const bool first_k_block = (pc == 0);
      pack_b(b, ldb, trans_b, pc, jc, kc, nc, packed_b.data());
      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mc = std::min(MC, m - ic);
        pack_a(a, lda, trans_a, ic, pc, mc, kc, packed_a.data());
        macro_block(mc, nc, kc, alpha, packed_a.data(), packed_b.data(),
                    beta, first_k_block, c + ic * ldc + jc, ldc);
      }
    }
  }
}

}  // namespace replica

// ---- sweep infrastructure --------------------------------------------------

struct Shape {
  const char* name;
  std::size_t m, n, k;
  bool large;  // counts toward the >= 1.2x gate
};

std::vector<Shape> shapes() {
  return {
      // im2col shapes of the paper networks: M = out_c, K = in_c·k²,
      // N = out_h·out_w.
      {"hep.conv3.im2col", 128, 784, 1152, false},
      {"climate.enc4.im2col", 768, 144, 12800, false},
      // Square compute-bound shapes; the 1024-class ones carry the gate.
      {"square.256", 256, 256, 256, false},
      {"square.512", 512, 512, 512, false},
      {"square.1024", 1024, 1024, 1024, true},
      {"rect.1024x1536x768", 1024, 1536, 768, true},
  };
}

std::vector<float> random_vec(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(count);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

/// Min-of-reps seconds for one sgemm_at call at `level`.
double time_level(SimdLevel level, const Shape& s, std::size_t reps,
                  const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>& c) {
  const auto run = [&] {
    gemm::sgemm_at(level, false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                   b.data(), s.n, 0.0f, c.data(), s.n);
  };
  run();  // warmup
  double best = 1e30;
  for (std::size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    run();
    best = std::min(best, timer.seconds());
  }
  return best;
}

int run_check_bitexact() {
  // The library side is pinned to the scalar tier explicitly: this check
  // is meaningful whatever PF15_SIMD says (verify.sh additionally runs
  // the whole binary under PF15_SIMD=off with --expect-level=scalar to
  // prove the env override picks the same path).
  const struct {
    bool ta, tb;
    std::size_t m, n, k;
    float alpha, beta;
  } cases[] = {
      {false, false, 96, 128, 256, 1.0f, 0.0f},
      {false, false, 13, 29, 31, 1.0f, 0.0f},
      {false, false, 97, 300, 260, 1.0f, 0.5f},  // crosses MC and KC
      {true, false, 64, 64, 64, 0.5f, 1.0f},
      {false, true, 50, 70, 90, 1.0f, 0.25f},
      {true, true, 33, 47, 29, -1.0f, 2.0f},
      {false, false, 8, 8, 0, 1.0f, 0.5f},  // degenerate: beta path only
      // n < 16 <= m: the library runs it channel-major (Cᵀ = Bᵀ·Aᵀ,
      // transposed store), the replica row-major.
      {false, false, 80, 4, 1600, 1.0f, 0.0f},
  };
  std::size_t checked = 0;
  for (const auto& t : cases) {
    const std::size_t lda = t.ta ? t.m : t.k;
    const std::size_t ldb = t.tb ? t.k : t.n;
    const std::vector<float> a =
        random_vec((t.ta ? t.k : t.m) * lda, 0xBE + t.m);
    const std::vector<float> b =
        random_vec((t.tb ? t.n : t.k) * ldb, 0xEF + t.n);
    std::vector<float> c_lib = random_vec(t.m * t.n, 0xC0 + t.k);
    std::vector<float> c_ref = c_lib;
    gemm::sgemm_at(SimdLevel::kScalar, t.ta, t.tb, t.m, t.n, t.k, t.alpha,
                   a.data(), lda, b.data(), ldb, t.beta, c_lib.data(), t.n);
    replica::sgemm(t.ta, t.tb, t.m, t.n, t.k, t.alpha, a.data(), lda,
                   b.data(), ldb, t.beta, c_ref.data(), t.n);
    if (std::memcmp(c_lib.data(), c_ref.data(),
                    c_lib.size() * sizeof(float)) != 0) {
      std::size_t first = 0;
      while (first < c_lib.size() && c_lib[first] == c_ref[first] &&
             !(c_lib[first] == 0.0f &&
               std::signbit(c_lib[first]) != std::signbit(c_ref[first]))) {
        ++first;
      }
      std::fprintf(stderr,
                   "bench_simd: BIT-EXACTNESS VIOLATION m=%zu n=%zu k=%zu "
                   "ta=%d tb=%d: scalar tier diverges from the "
                   "pre-dispatch implementation at element %zu "
                   "(%.9g vs %.9g)\n",
                   t.m, t.n, t.k, int(t.ta), int(t.tb), first,
                   double(c_lib[first]), double(c_ref[first]));
      return kExitSimdGate;
    }
    ++checked;
  }
  std::printf("bench_simd: --check-bitexact OK (%zu shapes, scalar tier "
              "== pre-dispatch GEMM bit for bit)\n",
              checked);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t reps = 5;
  bool gate = false;
  bool check_bitexact = false;
  std::string expect_level;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--check-bitexact") {
      check_bitexact = true;
    } else if (arg.rfind("--expect-level=", 0) == 0) {
      expect_level = arg.substr(std::strlen("--expect-level="));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  const SimdLevel detected = gemm::simd_detected_level();
  const SimdLevel active = gemm::simd_level();
  std::printf("bench_simd: detected=%s active=%s (PF15_SIMD=%s)\n",
              gemm::to_string(detected), gemm::to_string(active),
              std::getenv("PF15_SIMD") ? std::getenv("PF15_SIMD")
                                       : "<unset>");

  if (!expect_level.empty() &&
      expect_level != gemm::to_string(active)) {
    std::fprintf(stderr,
                 "bench_simd: DISPATCH VIOLATION: expected level '%s' but "
                 "runtime resolved to '%s'\n",
                 expect_level.c_str(), gemm::to_string(active));
    return kExitSimdGate;
  }

  if (check_bitexact) {
    const int rc = run_check_bitexact();
    if (rc != 0) return rc;
  }
  if (!gate && (check_bitexact || !expect_level.empty()) &&
      json_path.empty()) {
    return 0;  // pure check invocation: skip the timing sweep
  }

  if (gate && detected != SimdLevel::kAvx2) {
    std::printf(
        "bench_simd: ============================================\n"
        "bench_simd: SIMD GATE SKIPPED: no AVX2+FMA on this CPU.\n"
        "bench_simd: The >=1.2x speedup acceptance cannot run on a\n"
        "bench_simd: scalar-only machine; this is NOT a pass of the\n"
        "bench_simd: perf gate, only an honest non-measurement.\n"
        "bench_simd: ============================================\n");
    return 0;
  }

  perf::Table table(
      {"shape", "m", "n", "k", "scalar GFLOP/s", "avx2 GFLOP/s", "speedup"});
  perf::Json rows = perf::Json::array();
  double worst_large_speedup = 1e30;
  bool any_large = false;
  for (const Shape& s : shapes()) {
    const std::vector<float> a = random_vec(s.m * s.k, 11 + s.m);
    const std::vector<float> b = random_vec(s.k * s.n, 13 + s.n);
    std::vector<float> c(s.m * s.n, 0.0f);
    const double gflop = 2.0 * double(s.m) * double(s.n) * double(s.k) / 1e9;
    const double scalar_s = time_level(SimdLevel::kScalar, s, reps, a, b, c);
    double avx2_s = 0.0;
    double speedup = 0.0;
    if (detected == SimdLevel::kAvx2) {
      avx2_s = time_level(SimdLevel::kAvx2, s, reps, a, b, c);
      speedup = scalar_s / avx2_s;
      if (s.large) {
        any_large = true;
        worst_large_speedup = std::min(worst_large_speedup, speedup);
      }
    }
    table.add_row({s.name, std::to_string(s.m), std::to_string(s.n),
                   std::to_string(s.k), perf::Table::num(gflop / scalar_s, 2),
                   avx2_s > 0.0 ? perf::Table::num(gflop / avx2_s, 2) : "-",
                   avx2_s > 0.0 ? perf::Table::num(speedup, 2) : "-"});
    perf::Json row = perf::Json::object();
    row.set("shape", s.name);
    row.set("m", s.m);
    row.set("n", s.n);
    row.set("k", s.k);
    row.set("gate_shape", s.large);
    row.set("scalar_gflops", gflop / scalar_s);
    if (avx2_s > 0.0) {
      row.set("avx2_gflops", gflop / avx2_s);
      row.set("speedup", speedup);
    }
    rows.push_back(std::move(row));
  }
  std::printf("%s", table.str().c_str());

  if (!json_path.empty()) {
    perf::Json record = perf::Json::object();
    record.set("bench", "simd");
    record.set("unit", "gflops");
    record.set("reps", reps);
    record.set("detected", gemm::to_string(detected));
    record.set("active", gemm::to_string(active));
    record.set("shapes", std::move(rows));
    record.write_file(json_path);
    std::printf("bench_simd: wrote %s\n", json_path.c_str());
  }

  if (gate) {
    if (!any_large) {
      std::fprintf(stderr, "bench_simd: gate ran but no large shapes?\n");
      return kExitSimdGate;
    }
    if (worst_large_speedup < 1.2) {
      std::fprintf(stderr,
                   "bench_simd: SIMD GATE FAILED: worst 1024-class "
                   "speedup %.2fx < 1.2x\n",
                   worst_large_speedup);
      return kExitSimdGate;
    }
    std::printf("bench_simd: SIMD gate passed: worst 1024-class speedup "
                "%.2fx >= 1.2x\n",
                worst_large_speedup);
  }
  return 0;
}
