// AVX2+FMA kernel tier. This is the ONLY translation unit compiled with
// -mavx2 -mfma (per-file, see CMakeLists.txt); nothing in it executes
// until src/gemm/simd.cpp's cpuid probe has confirmed the hardware, so
// the binary stays runnable on baseline x86-64.
//
// The GEMM microkernel and the two pack routines are hand-written
// intrinsics. The packers only move floats, so they write the same bytes
// as the generic packers the scalar tier keeps (SimdGemm.PackLayout* in
// tests/test_simd.cpp compares them): register transposes turn the
// strided reads of row-major A and transposed B into full-width loads,
// transposed A is a masked 6-float copy per column, and plain B is
// copied eight rows at a time across all its panels. The Winograd block transforms are the generic
// implementations from the shared header, which the compiler
// auto-vectorizes under this TU's flags (the SoA layouts were designed
// for exactly that). On a build without AVX2 support (non-x86, or the
// CMake gate off) the whole file degrades to a second copy of the
// generic kernels and avx2_kernels_compiled() reports false, which
// clamps detection.
#include "gemm/simd.hpp"

#include "gemm/kernels_generic.hpp"
#include "gemm/winograd_blocks.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <algorithm>
#endif

namespace pf15::gemm {
namespace detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// 6x16 microkernel as 12 ymm accumulators: each of the 6 rows of C keeps
// two 8-float halves resident, A broadcasts one element per (row, k) and
// both halves advance with a single fused multiply-add. 12 accumulators
// + 2 B registers + 1 broadcast = 15 of the 16 ymm registers live.
//
// Contract matches the generic kernel: acc (row-major 6x16) accumulates
// += pa_panel * pb_panel over kc. FMA skips the intermediate rounding of
// a*b, so results differ from the scalar tier in the last bits — that is
// the documented tolerance in the cross-tier tests.
void avx2_microkernel(std::size_t kc, const float* __restrict__ pa,
                      const float* __restrict__ pb,
                      float* __restrict__ acc) {
  constexpr std::size_t MR = kGemmMR;
  constexpr std::size_t NR = kGemmNR;
  static_assert(MR == 6 && NR == 16, "kernel is tiled for 6x16");

  __m256 c00 = _mm256_loadu_ps(acc + 0 * NR);
  __m256 c01 = _mm256_loadu_ps(acc + 0 * NR + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 1 * NR);
  __m256 c11 = _mm256_loadu_ps(acc + 1 * NR + 8);
  __m256 c20 = _mm256_loadu_ps(acc + 2 * NR);
  __m256 c21 = _mm256_loadu_ps(acc + 2 * NR + 8);
  __m256 c30 = _mm256_loadu_ps(acc + 3 * NR);
  __m256 c31 = _mm256_loadu_ps(acc + 3 * NR + 8);
  __m256 c40 = _mm256_loadu_ps(acc + 4 * NR);
  __m256 c41 = _mm256_loadu_ps(acc + 4 * NR + 8);
  __m256 c50 = _mm256_loadu_ps(acc + 5 * NR);
  __m256 c51 = _mm256_loadu_ps(acc + 5 * NR + 8);

  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = pa + p * MR;
    const float* brow = pb + p * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 a = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(arow + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(arow + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }

  _mm256_storeu_ps(acc + 0 * NR, c00);
  _mm256_storeu_ps(acc + 0 * NR + 8, c01);
  _mm256_storeu_ps(acc + 1 * NR, c10);
  _mm256_storeu_ps(acc + 1 * NR + 8, c11);
  _mm256_storeu_ps(acc + 2 * NR, c20);
  _mm256_storeu_ps(acc + 2 * NR + 8, c21);
  _mm256_storeu_ps(acc + 3 * NR, c30);
  _mm256_storeu_ps(acc + 3 * NR + 8, c31);
  _mm256_storeu_ps(acc + 4 * NR, c40);
  _mm256_storeu_ps(acc + 4 * NR + 8, c41);
  _mm256_storeu_ps(acc + 5 * NR, c50);
  _mm256_storeu_ps(acc + 5 * NR + 8, c51);
}


// Lanes [0, n) set, for masked loads of a ragged row (n <= 8).
inline __m256i lane_mask(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Stores lanes 0-5 of v (one column of an A panel).
inline void store6(float* dst, __m256 v) {
  _mm_storeu_ps(dst, _mm256_castps256_ps128(v));
  _mm_storel_pi(reinterpret_cast<__m64*>(dst + 4),
                _mm256_extractf128_ps(v, 1));
}

// In-register 8x8 transpose: afterwards r[q] holds what was column q.
inline void transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// generic_pack_a's layout: ceil(mc/MR) panels, each kc columns of MR
// contiguous rows, rows past mc zero.
void avx2_pack_a(const float* a, std::size_t lda, bool trans,
                 std::size_t row0, std::size_t col0, std::size_t mc,
                 std::size_t kc, float* dst) {
  constexpr std::size_t MR = kGemmMR;
  static_assert(MR == 6, "packer is tiled for 6-row panels");
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
    const std::size_t mr = std::min(MR, mc - i0);
    if (trans) {
      // Column p of the panel is mr contiguous floats of A's row col0 + p.
      // Each 8-wide store spills two lanes into the next column, which
      // the next store overwrites; the last column stores 6.
      const __m256i mask = lane_mask(mr);
      const float* src = a + col0 * lda + row0 + i0;
      for (std::size_t p = 0; p < kc; ++p, src += lda, dst += MR) {
        const __m256 col = _mm256_maskload_ps(src, mask);
        if (p + 1 < kc) {
          _mm256_storeu_ps(dst, col);
        } else {
          store6(dst, col);
        }
      }
      continue;
    }
    // Row-major A: the panel's rows are contiguous in p, so 8 columns at
    // a time are a 6x8 block transposed in registers (rows 6 and 7 are
    // padding whose lanes the next store overwrites).
    const float* src = a + (row0 + i0) * lda + col0;
    std::size_t p = 0;
    for (; p + 8 <= kc; p += 8, dst += 8 * MR) {
      __m256 r[8];
      for (std::size_t i = 0; i < 8; ++i) {
        r[i] = i < mr ? _mm256_loadu_ps(src + i * lda + p) : zero;
      }
      transpose8x8(r);
      for (std::size_t q = 0; q < 7; ++q) _mm256_storeu_ps(dst + q * MR, r[q]);
      store6(dst + 7 * MR, r[7]);
    }
    for (; p < kc; ++p) {
      for (std::size_t i = 0; i < MR; ++i) {
        *dst++ = i < mr ? src[i * lda + p] : 0.0f;
      }
    }
  }
}

// generic_pack_b's layout: ceil(nc/NR) panels, each kc rows of NR
// contiguous columns, columns past nc zero.
void avx2_pack_b(const float* b, std::size_t ldb, bool trans,
                 std::size_t row0, std::size_t col0, std::size_t kc,
                 std::size_t nc, float* dst) {
  constexpr std::size_t NR = kGemmNR;
  static_assert(NR == 16, "packer is tiled for 16-column panels");
  if (!trans) {
    // Eight rows at a time, dealt out to the panels: eight sequential
    // read streams, and 512 contiguous bytes written per panel. Copying
    // a whole panel at a time walks down kc rows at stride ldb instead,
    // which aliases in 4 KiB whenever ldb is a multiple of 1024 floats
    // (32 px feature maps); copying one row at a time scatters 64-byte
    // writes across every panel.
    const std::size_t full = nc / NR;
    const std::size_t tail = nc % NR;
    const __m256i lo = lane_mask(std::min<std::size_t>(tail, 8));
    const __m256i hi = lane_mask(tail > 8 ? tail - 8 : 0);
    for (std::size_t p0 = 0; p0 < kc; p0 += 8) {
      const std::size_t rows = std::min<std::size_t>(8, kc - p0);
      const float* src = b + (row0 + p0) * ldb + col0;
      float* out = dst + p0 * NR;
      for (std::size_t jp = 0; jp < full; ++jp, src += NR, out += kc * NR) {
        for (std::size_t r = 0; r < rows; ++r) {
          _mm256_storeu_ps(out + r * NR, _mm256_loadu_ps(src + r * ldb));
          _mm256_storeu_ps(out + r * NR + 8,
                           _mm256_loadu_ps(src + r * ldb + 8));
        }
      }
      for (std::size_t r = 0; tail != 0 && r < rows; ++r) {
        _mm256_storeu_ps(out + r * NR, _mm256_maskload_ps(src + r * ldb, lo));
        _mm256_storeu_ps(out + r * NR + 8,
                         _mm256_maskload_ps(src + r * ldb + 8, hi));
      }
    }
    return;
  }
  // Transposed B: column j of op(B) is contiguous in storage, so 8
  // columns x 8 rows at a time are an 8x8 block transposed in registers.
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t j0 = 0; j0 < nc; j0 += NR, dst += kc * NR) {
    const std::size_t nr = std::min(NR, nc - j0);
    const float* src = b + (col0 + j0) * ldb + row0;
    std::size_t p = 0;
    for (; p + 8 <= kc; p += 8) {
      for (std::size_t h = 0; h < NR; h += 8) {
        __m256 r[8];
        for (std::size_t q = 0; q < 8; ++q) {
          r[q] = h + q < nr ? _mm256_loadu_ps(src + (h + q) * ldb + p) : zero;
        }
        transpose8x8(r);
        for (std::size_t q = 0; q < 8; ++q) {
          _mm256_storeu_ps(dst + (p + q) * NR + h, r[q]);
        }
      }
    }
    for (; p < kc; ++p) {
      for (std::size_t j = 0; j < NR; ++j) {
        dst[p * NR + j] = j < nr ? src[j * ldb + p] : 0.0f;
      }
    }
  }
}

}  // namespace

bool avx2_kernels_compiled() { return true; }

const GemmKernels& avx2_gemm_kernels() {
  static const GemmKernels table = {
      &avx2_microkernel,
      &avx2_pack_a,
      &avx2_pack_b,
      SimdLevel::kAvx2,
  };
  return table;
}

const WinogradBlockKernels& avx2_winograd_block_kernels() {
  static const WinogradBlockKernels table = {
      &wino_f2_input_block, &wino_f2_output_block, &wino_f2_dy_block,
      &wino_f4_input_block, &wino_f4_output_block, &wino_f4_dy_block,
      SimdLevel::kAvx2,
  };
  return table;
}

#else  // !(__AVX2__ && __FMA__)

bool avx2_kernels_compiled() { return false; }

// Unreachable through dispatch (detection clamps to scalar when this TU
// lacks AVX2 codegen) but kept callable so gemm_kernels_for(kAvx2) is
// always safe: it just runs a second generic build.
const GemmKernels& avx2_gemm_kernels() {
  static const GemmKernels table = {
      &generic_microkernel,
      &generic_pack_a,
      &generic_pack_b,
      SimdLevel::kScalar,
  };
  return table;
}

const WinogradBlockKernels& avx2_winograd_block_kernels() {
  static const WinogradBlockKernels table = {
      &wino_f2_input_block, &wino_f2_output_block, &wino_f2_dy_block,
      &wino_f4_input_block, &wino_f4_output_block, &wino_f4_dy_block,
      SimdLevel::kScalar,
  };
  return table;
}

#endif

}  // namespace detail
}  // namespace pf15::gemm
