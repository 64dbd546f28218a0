// Generic (portable C++) implementations of the packed-GEMM kernel set:
// the pack routines and the scalar MR x NR microkernel. This header is
// included by BOTH dispatch TUs — src/gemm/simd.cpp (portable flags; the
// scalar tier, numerically identical to the pre-dispatch kernels) and
// src/gemm/simd_avx2.cpp (per-file -mavx2 -mfma), which supersedes all
// three with hand-written intrinsics and uses these only in a build
// without AVX2 codegen.
//
// Everything here lives in an anonymous namespace ON PURPOSE: each TU
// must keep its own copy with its own codegen. With external (inline/
// COMDAT) linkage the linker would fold the two builds into one — and if
// it kept the AVX2 build, the "portable" scalar table would execute AVX2
// instructions on hardware the dispatch just rejected.
#pragma once

#include <algorithm>
#include <cstddef>

#include "gemm/simd.hpp"

namespace pf15::gemm {
namespace {

inline float kernel_load_a(const float* a, std::size_t lda, bool trans,
                           std::size_t row, std::size_t col) {
  return trans ? a[col * lda + row] : a[row * lda + col];
}

inline float kernel_load_b(const float* b, std::size_t ldb, bool trans,
                           std::size_t row, std::size_t col) {
  return trans ? b[col * ldb + row] : b[row * ldb + col];
}

// Pack an mc x kc block of op(A) into panels of MR rows:
// dst layout: ceil(mc/MR) panels, each kc columns of MR contiguous rows.
[[maybe_unused]] void generic_pack_a(const float* a, std::size_t lda,
                                    bool trans, std::size_t row0,
                                    std::size_t col0, std::size_t mc,
                                    std::size_t kc, float* dst) {
  constexpr std::size_t MR = kGemmMR;
  for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
    const std::size_t mr = std::min(MR, mc - i0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        *dst++ = kernel_load_a(a, lda, trans, row0 + i0 + i, col0 + p);
      }
      for (std::size_t i = mr; i < MR; ++i) *dst++ = 0.0f;
    }
  }
}

// Pack a kc x nc block of op(B) into panels of NR columns:
// dst layout: ceil(nc/NR) panels, each kc rows of NR contiguous columns.
// The non-transposed full-panel case is a straight row copy — split out
// so it compiles to vector moves instead of a gather loop.
[[maybe_unused]] void generic_pack_b(const float* b, std::size_t ldb,
                                    bool trans, std::size_t row0,
                                    std::size_t col0, std::size_t kc,
                                    std::size_t nc, float* dst) {
  constexpr std::size_t NR = kGemmNR;
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t nr = std::min(NR, nc - j0);
    if (!trans && nr == NR) {
      const float* src = b + row0 * ldb + col0 + j0;
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t j = 0; j < NR; ++j) dst[j] = src[j];
        dst += NR;
        src += ldb;
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < nr; ++j) {
        *dst++ = kernel_load_b(b, ldb, trans, row0 + p, col0 + j0 + j);
      }
      for (std::size_t j = nr; j < NR; ++j) *dst++ = 0.0f;
    }
  }
}

// MR x NR microkernel: acc += packed_a_panel * packed_b_panel over kc.
// Plain scalar code with fixed trip counts; GCC vectorises the NR loop.
// `acc` is the row-major MR x NR tile. ([[maybe_unused]], like the
// packers: the AVX2 TU includes this header but supersedes all three.)
[[maybe_unused]] void generic_microkernel(std::size_t kc, const float* __restrict__ pa,
                         const float* __restrict__ pb,
                         float* __restrict__ acc) {
  constexpr std::size_t MR = kGemmMR;
  constexpr std::size_t NR = kGemmNR;
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict__ arow = pa + p * MR;
    const float* __restrict__ brow = pb + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      const float aval = arow[i];
      for (std::size_t j = 0; j < NR; ++j) {
        acc[i * NR + j] += aval * brow[j];
      }
    }
  }
}

}  // namespace
}  // namespace pf15::gemm
