#include "gemm/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "common/aligned.hpp"
#include "common/errors.hpp"
#include "common/task_scheduler.hpp"
#include "gemm/simd.hpp"

namespace pf15::gemm {

namespace {

// Blocking parameters (floats). MR x NR is the register tile (fixed by
// the kernel tier, see simd.hpp); KC sizes the packed-A panel for L2, NC
// the packed-B panel for L3. MR must divide MC and NR must divide NC, so
// a block's panels are a slice of the whole operand's (PackedA).
constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;
constexpr std::size_t MC = 96;
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 2048;
static_assert(MC % MR == 0 && NC % NR == 0);

std::atomic<std::uint64_t> g_flops{0};

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

// One operand of the blocked driver: storage it packs block by block,
// or (`panels` non-null) the whole operand packed ahead of time, K block
// after K block, each block `stride` floats (PackedA).
struct Operand {
  const float* data = nullptr;
  std::size_t ld = 0;
  bool trans = false;
  const float* panels = nullptr;
  std::size_t stride = 0;
};

// sgemm's pack panels: one A and one B buffer per thread, uninitialised
// and grown only to what a call needs. No lease is needed because the
// driver never waits on the scheduler: between its first pack and its
// last microkernel call no other task can run on this thread (help-first
// waits are the only way one task nests inside another, scratch.hpp),
// so no nested call can reuse the buffers mid-product.
struct PackPanels {
  std::unique_ptr<float[], FreeDeleter> buf;
  std::size_t floats = 0;

  float* reserve(std::size_t need) {
    if (need > floats) {
      buf.reset();
      buf.reset(aligned_alloc_array<float>(need));
      floats = need;
    }
    return buf.get();
  }
};

thread_local PackPanels t_panels_a;
thread_local PackPanels t_panels_b;

// Computes one mc x nc block of the product from packed panels through
// the given kernel table, storing element (i, j) at c[i·rs + j·cs].
// `first_k_block` selects beta-handling: the first K block applies beta,
// later ones accumulate.
void macro_block(const GemmKernels& ker, std::size_t mc, std::size_t nc,
                 std::size_t kc, float alpha, const float* packed_a,
                 const float* packed_b, float beta, bool first_k_block,
                 float* c, std::size_t rs, std::size_t cs) {
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t nr = std::min(NR, nc - j0);
    const float* pb = packed_b + j0 * kc;
    for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
      const std::size_t mr = std::min(MR, mc - i0);
      const float* pa = packed_a + i0 * kc;
      alignas(kCacheLineBytes) float acc[MR * NR] = {};
      ker.microkernel(kc, pa, pb, acc);
      float* cblk = c + i0 * rs + j0 * cs;
      const auto store = [&](auto op) {
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nr; ++j) {
            op(cblk[i * rs + j * cs], alpha * acc[i * NR + j]);
          }
        }
      };
      if (!first_k_block) {
        store([](float& dst, float v) { dst += v; });
      } else if (beta == 0.0f) {
        store([](float& dst, float v) { dst = v; });
      } else {
        store([beta](float& dst, float v) { dst = beta * dst + v; });
      }
    }
  }
}

// Serial blocked product of the m x n x k problem op(A)·op(B), stored
// through the strides (rs, cs).
void blocked(const GemmKernels& ker, std::size_t m, std::size_t n,
             std::size_t k, float alpha, const Operand& a, const Operand& b,
             float beta, float* c, std::size_t rs, std::size_t cs) {
  float* a_buf = a.panels != nullptr
                     ? nullptr
                     : t_panels_a.reserve(round_up(std::min(MC, m), MR) *
                                          std::min(KC, k));
  float* b_buf = b.panels != nullptr
                     ? nullptr
                     : t_panels_b.reserve(std::min(KC, k) *
                                          round_up(std::min(NC, n), NR));
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const float* pb = b_buf;
      if (b.panels != nullptr) {
        pb = b.panels + pc * b.stride + jc * kc;
      } else {
        ker.pack_b(b.data, b.ld, b.trans, pc, jc, kc, nc, b_buf);
      }
      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mc = std::min(MC, m - ic);
        const float* pa = a_buf;
        if (a.panels != nullptr) {
          pa = a.panels + pc * a.stride + ic * kc;
        } else {
          ker.pack_a(a.data, a.ld, a.trans, ic, pc, mc, kc, a_buf);
        }
        macro_block(ker, mc, nc, kc, alpha, pa, pb, beta, pc == 0,
                    c + ic * rs + jc * cs, rs, cs);
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

// The one sgemm driver: C (m x n, row-major, ldc) = alpha·op(A)·op(B) +
// beta·C. Where gemm_transposes(m, n) holds it runs Cᵀ = op(B)ᵀ·op(A)ᵀ,
// whose left operand is B read with the opposite transpose flag, and
// stores the result transposed.
void gemm(const GemmKernels& ker, std::size_t m, std::size_t n,
          std::size_t k, float alpha, Operand a, Operand b, float beta,
          float* c, std::size_t ldc) {
  if (handle_degenerate(m, n, k, alpha, beta, c, ldc)) return;
  if (gemm_transposes(m, n)) {
    a.trans = !a.trans;
    b.trans = !b.trans;
    blocked(ker, n, m, k, alpha, b, a, beta, c, 1, ldc);
  } else {
    blocked(ker, m, n, k, alpha, a, b, beta, c, ldc, 1);
  }
  g_flops.fetch_add(flops(m, n, k), std::memory_order_relaxed);
}

}  // namespace

PackedA::PackedA(bool trans_a, std::size_t m, std::size_t n, std::size_t k,
                 const float* a, std::size_t lda)
    : m_(m), n_(n), k_(k) {
  const GemmKernels& ker = gemm_kernels();
  const bool right = gemm_transposes(m, n);
  stride_ = right ? round_up(m, NR) : round_up(m, MR);
  panels_ = AlignedBuffer<float>(stride_ * k);
  for (std::size_t pc = 0; pc < k; pc += KC) {
    const std::size_t kc = std::min(KC, k - pc);
    float* dst = panels_.data() + pc * stride_;
    if (right) {
      // op(A)ᵀ (k x m) as the right operand: op(A)ᵀ read plainly is A
      // read with the opposite transpose flag.
      ker.pack_b(a, lda, !trans_a, pc, 0, kc, m, dst);
    } else {
      ker.pack_a(a, lda, trans_a, 0, pc, m, kc, dst);
    }
  }
}

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  gemm(gemm_kernels(), m, n, k, alpha, {a, lda, trans_a}, {b, ldb, trans_b},
       beta, c, ldc);
}

void sgemm_at(SimdLevel level, bool trans_a, bool trans_b, std::size_t m,
              std::size_t n, std::size_t k, float alpha, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float beta,
              float* c, std::size_t ldc) {
  gemm(gemm_kernels_for(level), m, n, k, alpha, {a, lda, trans_a},
       {b, ldb, trans_b}, beta, c, ldc);
}

void sgemm_packed(const PackedA& a, bool trans_b, float alpha,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc) {
  gemm(gemm_kernels(), a.m_, a.n_, a.k_, alpha,
       {nullptr, 0, false, a.panels_.data(), a.stride_}, {b, ldb, trans_b},
       beta, c, ldc);
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
  const GemmKernels& ker = gemm_kernels();
  const std::size_t blocks = (m + MC - 1) / MC;
  const std::size_t per_task =
      std::max<std::size_t>(1, blocks / (sched.size() * 2));
  const std::size_t tasks = (blocks + per_task - 1) / per_task;
  // Each task runs the rows [m0, m1) of C as a product of its own.
  sched.parallel_for(0, tasks, [&](std::size_t t) {
    const std::size_t m0 = t * per_task * MC;
    const std::size_t m1 = std::min(m, (t + 1) * per_task * MC);
    if (m0 < m1) {
      gemm(ker, m1 - m0, n, k, alpha,
           {trans_a ? a + m0 : a + m0 * lda, lda, trans_a},
           {b, ldb, trans_b}, beta, c + m0 * ldc, ldc);
    }
  });
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
