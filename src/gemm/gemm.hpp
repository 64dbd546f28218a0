// Single-precision GEMM substrate.
//
// The paper's kernels run on MKL 2017's deep-learning primitives; we build
// our own: a cache-blocked, register-tiled SGEMM with operand packing
// (Goto/BLIS style) and an optional thread-parallel driver. Deep-learning
// GEMMs are often "tall-skinny" (large M·K, small N = minibatch or output
// pixels), the regime DeepBench highlights (§II-A). A 6x16 register tile
// fills only n/16 of its columns when n < 16 (a quarter at the climate
// net's 2x2-pixel layers), so when n < 16 <= m the driver computes
// Cᵀ = op(B)ᵀ·op(A)ᵀ and stores it transposed: the long dimension runs
// along the tile's 16 columns (gemm_transposes). Every output element
// keeps its K order and multiply-add sequence, so both orientations are
// bit-identical.
//
// An operand that many products share — a conv filter bank applied to
// every image of a batch — is packed once into a PackedA and multiplied
// with sgemm_packed, which skips re-packing it on every call.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/aligned.hpp"
#include "gemm/simd.hpp"

namespace pf15::gemm {

/// C (MxN) = alpha * op(A) (MxK) * op(B) (KxN) + beta * C.
/// Row-major storage with explicit leading dimensions. Runs through the
/// runtime-dispatched kernel tier (simd.hpp): AVX2+FMA where the cpuid
/// probe confirms it, the scalar tier otherwise or under PF15_SIMD=off.
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// sgemm pinned to an explicit kernel tier, bypassing the runtime
/// dispatch. Benches and tests use this to race tiers against each other
/// in one process; production code should call sgemm.
void sgemm_at(SimdLevel level, bool trans_a, bool trans_b, std::size_t m,
              std::size_t n, std::size_t k, float alpha, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float beta,
              float* c, std::size_t ldc);

/// Same contract as sgemm but parallelised over row blocks of C using the
/// global thread pool. Falls back to the serial path for small problems.
void sgemm_parallel(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                    std::size_t k, float alpha, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    float beta, float* c, std::size_t ldc);

/// Whether sgemm computes C (m x n) as Cᵀ = op(B)ᵀ·op(A)ᵀ with a
/// transposed store: when n is narrower than the register tile and m
/// fills it (n < kGemmNR <= m). PackedA lays its panels out by this rule.
inline bool gemm_transposes(std::size_t m, std::size_t n) {
  return n < kGemmNR && m >= kGemmNR;
}

/// op(A) (m x k) packed once into sgemm's panel layout, for the products
/// op(A)·op(B) with B of n columns that sgemm_packed runs against it. The
/// panels suit the orientation gemm_transposes(m, n) picks: MR-row panels
/// of the left operand, or NR-column panels of op(A)ᵀ as the right one.
/// Packed by the active kernel tier; the layout is tier-independent.
class PackedA {
 public:
  PackedA(bool trans_a, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda);

 private:
  friend void sgemm_packed(const PackedA& a, bool trans_b, float alpha,
                           const float* b, std::size_t ldb, float beta,
                           float* c, std::size_t ldc);

  std::size_t m_, n_, k_;
  std::size_t stride_;  // floats per K block: K block pc starts at pc·stride_
  AlignedBuffer<float> panels_;
};

/// C (m x n) = alpha * op(A) * op(B) + beta * C with op(A) from `a`, for
/// B of a.n() columns. Bit-identical to the sgemm call on the matrix `a`
/// was packed from.
void sgemm_packed(const PackedA& a, bool trans_b, float alpha,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc);

/// Triple-loop reference implementation used by tests as ground truth.
void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc);

/// Number of fused multiply-add FLOPs a GEMM of this size performs
/// (counting one FMA as two FLOPs, the SDE convention from §V).
inline std::uint64_t flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2ull * m * n * k;
}

/// Cumulative FLOPs executed by sgemm, sgemm_parallel and sgemm_packed
/// on this thread's view since process start. The perf module uses this
/// as our stand-in for Intel SDE instruction counting (§V): tests assert
/// the analytic per-layer formulas against this instrumented count.
std::uint64_t executed_flops();
void reset_executed_flops();

}  // namespace pf15::gemm
