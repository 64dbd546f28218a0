#include "gemm/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "common/aligned.hpp"
#include "common/errors.hpp"
#include "common/task_scheduler.hpp"
#include "gemm/simd.hpp"

namespace pf15::gemm {

namespace {

// Blocking parameters (floats). MR x NR is the register tile (fixed by
// the kernel tier, see simd.hpp); KC sizes the packed-A panel for L2, NC
// the packed-B panel for L3. MR must divide MC.
constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;
constexpr std::size_t MC = 96;
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 2048;

std::atomic<std::uint64_t> g_flops{0};

// Computes one mc x nc block of C from packed panels through the given
// kernel table. `first_k_block` selects beta-handling: the first K block
// applies beta, later ones accumulate.
void macro_block(const GemmKernels& ker, std::size_t mc, std::size_t nc,
                 std::size_t kc, float alpha, const float* packed_a,
                 const float* packed_b, float beta, bool first_k_block,
                 float* c, std::size_t ldc) {
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t nr = std::min(NR, nc - j0);
    const float* pb = packed_b + (j0 / NR) * (kc * NR);
    for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
      const std::size_t mr = std::min(MR, mc - i0);
      const float* pa = packed_a + (i0 / MR) * (kc * MR);
      alignas(kCacheLineBytes) float acc[MR * NR] = {};
      ker.microkernel(kc, pa, pb, acc);
      float* cblk = c + i0 * ldc + j0;
      if (first_k_block) {
        if (beta == 0.0f) {
          for (std::size_t i = 0; i < mr; ++i) {
            for (std::size_t j = 0; j < nr; ++j) {
              cblk[i * ldc + j] = alpha * acc[i * NR + j];
            }
          }
        } else {
          for (std::size_t i = 0; i < mr; ++i) {
            for (std::size_t j = 0; j < nr; ++j) {
              cblk[i * ldc + j] =
                  beta * cblk[i * ldc + j] + alpha * acc[i * NR + j];
            }
          }
        }
      } else {
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nr; ++j) {
            cblk[i * ldc + j] += alpha * acc[i * NR + j];
          }
        }
      }
    }
  }
}

// Serial blocked GEMM over a row-range [m0, m1) of C. Thread-safe as long
// as row ranges are disjoint.
void sgemm_rows(const GemmKernels& ker, bool trans_a, bool trans_b,
                std::size_t m0, std::size_t m1, std::size_t n, std::size_t k,
                float alpha, const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float beta, float* c, std::size_t ldc) {
  AlignedBuffer<float> packed_a(MC * KC);
  AlignedBuffer<float> packed_b(KC * NC);
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const bool first_k_block = (pc == 0);
      ker.pack_b(b, ldb, trans_b, pc, jc, kc, nc, packed_b.data());
      for (std::size_t ic = m0; ic < m1; ic += MC) {
        const std::size_t mc = std::min(MC, m1 - ic);
        ker.pack_a(a, lda, trans_a, ic, pc, mc, kc, packed_a.data());
        macro_block(ker, mc, nc, kc, alpha, packed_a.data(), packed_b.data(),
                    beta, first_k_block, c + ic * ldc + jc, ldc);
      }
    }
  }
}

// Shared degenerate-product handling: C = beta * C when no multiply will
// run. Returns true if the caller is done.
bool handle_degenerate(std::size_t m, std::size_t n, std::size_t k,
                       float alpha, float beta, float* c, std::size_t ldc) {
  if (m == 0 || n == 0) return true;
  if (k == 0 || alpha == 0.0f) {
    for (std::size_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      if (beta == 0.0f) {
        std::memset(row, 0, n * sizeof(float));
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
    return true;
  }
  return false;
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (handle_degenerate(m, n, k, alpha, beta, c, ldc)) return;
  sgemm_rows(gemm_kernels(), trans_a, trans_b, 0, m, n, k, alpha, a, lda, b,
             ldb, beta, c, ldc);
  g_flops.fetch_add(flops(m, n, k), std::memory_order_relaxed);
}

void sgemm_at(SimdLevel level, bool trans_a, bool trans_b, std::size_t m,
              std::size_t n, std::size_t k, float alpha, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float beta,
              float* c, std::size_t ldc) {
  if (handle_degenerate(m, n, k, alpha, beta, c, ldc)) return;
  sgemm_rows(gemm_kernels_for(level), trans_a, trans_b, 0, m, n, k, alpha, a,
             lda, b, ldb, beta, c, ldc);
  g_flops.fetch_add(flops(m, n, k), std::memory_order_relaxed);
}

void sgemm_parallel(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                    std::size_t k, float alpha, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    float beta, float* c, std::size_t ldc) {
  const std::uint64_t work = flops(m, n, k);
  TaskScheduler& sched = TaskScheduler::global();
  // Below ~8 MFLOP the packing + scheduling overhead dominates.
  if (sched.size() <= 1 || work < (8ull << 20) || m < 2 * MC) {
    sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  if (m == 0 || n == 0) return;
  const GemmKernels& ker = gemm_kernels();
  const std::size_t blocks = (m + MC - 1) / MC;
  const std::size_t per_task =
      std::max<std::size_t>(1, blocks / (sched.size() * 2));
  const std::size_t tasks = (blocks + per_task - 1) / per_task;
  sched.parallel_for(0, tasks, [&](std::size_t t) {
    const std::size_t m0 = t * per_task * MC;
    const std::size_t m1 = std::min(m, (t + 1) * per_task * MC);
    if (m0 < m1) {
      sgemm_rows(ker, trans_a, trans_b, m0, m1, n, k, alpha, a, lda, b, ldb,
                 beta, c, ldc);
    }
  });
  g_flops.fetch_add(work, std::memory_order_relaxed);
}

void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * ldc + j] = alpha * static_cast<float>(acc) +
                       (beta == 0.0f ? 0.0f : beta * c[i * ldc + j]);
    }
  }
}

std::uint64_t executed_flops() {
  return g_flops.load(std::memory_order_relaxed);
}

void reset_executed_flops() { g_flops.store(0, std::memory_order_relaxed); }

}  // namespace pf15::gemm
