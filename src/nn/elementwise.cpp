#include "nn/elementwise.hpp"

#include <algorithm>
#include <limits>

#include "common/errors.hpp"

namespace pf15::nn {

namespace {

/// Elements one task works through: large enough to amortise a task
/// (~64 KiB of floats per stream), small enough that a 2M-element
/// activation spreads over every worker.
constexpr std::size_t kPieceElems = 16384;

/// Items of `item_elems` elements each that make up one piece.
std::size_t items_per_piece(std::size_t item_elems) {
  return std::max<std::size_t>(1, kPieceElems / std::max<std::size_t>(
                                                    1, item_elems));
}

/// Runs body(lo, hi) over [0, n) in pieces of `piece` items across the
/// scheduler; a single piece runs inline on the caller.
template <class Body>
void for_pieces(TaskScheduler& sched, std::size_t n, std::size_t piece,
                const Body& body) {
  const std::size_t pieces = (n + piece - 1) / piece;
  if (pieces <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  sched.parallel_for(0, pieces, [&](std::size_t i) {
    const std::size_t lo = i * piece;
    body(lo, std::min(n, lo + piece));
  });
}

/// One plane of max pooling. Both selects compile to blends: no branch
/// depends on the data. K > 0 fixes the kernel size at compile time; for
/// the HEP net's 2x2 pool the unrolled taps let the output loop
/// vectorise, ~2.8x faster than the runtime-sized loop.
template <bool kArgmax, std::size_t K>
void maxpool_plane(const PoolGeom& g, const float* __restrict__ src,
                   float* __restrict__ dst, std::uint32_t* __restrict__ arg) {
  const std::size_t k = K > 0 ? K : g.kernel;
  const std::size_t iw = g.iw, s = g.stride;
  for (std::size_t y = 0; y < g.oh; ++y) {
    for (std::size_t x = 0; x < g.ow; ++x) {
      float best = -std::numeric_limits<float>::infinity();
      std::uint32_t best_idx = 0;
      for (std::size_t ky = 0; ky < k; ++ky) {
        const std::size_t row = (y * s + ky) * iw + x * s;
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float v = src[row + kx];
          const bool gt = v > best;
          best = gt ? v : best;
          if constexpr (kArgmax) {
            best_idx = gt ? static_cast<std::uint32_t>(row + kx) : best_idx;
          }
        }
      }
      dst[y * g.ow + x] = best;
      if constexpr (kArgmax) arg[y * g.ow + x] = best_idx;
    }
  }
}

template <bool kArgmax>
void maxpool_planes(const PoolGeom& g, const float* src, float* dst,
                    std::uint32_t* argmax, TaskScheduler& sched) {
  const std::size_t in_plane = g.ih * g.iw, out_plane = g.oh * g.ow;
  for_pieces(sched, g.planes, items_per_piece(in_plane),
             [&](std::size_t lo, std::size_t hi) {
               for (std::size_t p = lo; p < hi; ++p) {
                 const float* in = src + p * in_plane;
                 float* out = dst + p * out_plane;
                 std::uint32_t* arg =
                     kArgmax ? argmax + p * out_plane : nullptr;
                 if (g.kernel == 2) {
                   maxpool_plane<kArgmax, 2>(g, in, out, arg);
                 } else {
                   maxpool_plane<kArgmax, 0>(g, in, out, arg);
                 }
               }
             });
}

}  // namespace

void relu_forward(const float* src, float* dst, std::size_t n,
                  TaskScheduler& sched) {
  for_pieces(sched, n, kPieceElems, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    }
  });
}

void relu_backward(const float* x, const float* dout, float* din,
                   std::size_t n, TaskScheduler& sched) {
  for_pieces(sched, n, kPieceElems, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Unconditional load: the select if-converts and vectorises, where
      // `x[i] > 0 ? dout[i] : 0` kept a data-dependent branch.
      const float g = dout[i];
      din[i] = x[i] > 0.0f ? g : 0.0f;
    }
  });
}

void maxpool_forward(const PoolGeom& g, const float* src, float* dst,
                     std::uint32_t* argmax, TaskScheduler& sched) {
  PF15_CHECK_MSG(g.ih * g.iw <= std::numeric_limits<std::uint32_t>::max(),
                 "maxpool: plane of " << g.ih << "x" << g.iw
                                      << " overflows 32-bit argmax");
  if (argmax != nullptr) {
    maxpool_planes<true>(g, src, dst, argmax, sched);
  } else {
    maxpool_planes<false>(g, src, dst, nullptr, sched);
  }
}

void maxpool_backward(const PoolGeom& g, const float* dout,
                      const std::uint32_t* argmax, float* din,
                      TaskScheduler& sched) {
  const std::size_t in_plane = g.ih * g.iw, out_plane = g.oh * g.ow;
  // Each plane's argmaxes point only into that plane, so planes zero and
  // scatter independently; within a plane the scatter keeps output order.
  for_pieces(sched, g.planes, items_per_piece(in_plane),
             [&](std::size_t lo, std::size_t hi) {
               for (std::size_t p = lo; p < hi; ++p) {
                 float* d = din + p * in_plane;
                 const float* go = dout + p * out_plane;
                 const std::uint32_t* a = argmax + p * out_plane;
                 std::fill(d, d + in_plane, 0.0f);
                 for (std::size_t j = 0; j < out_plane; ++j) d[a[j]] += go[j];
               }
             });
}

void global_avg_pool_forward(const float* src, float* dst,
                             std::size_t planes, std::size_t plane,
                             TaskScheduler& sched) {
  const float inv = 1.0f / static_cast<float>(plane);
  for_pieces(sched, planes, items_per_piece(plane),
             [=](std::size_t lo, std::size_t hi) {
               for (std::size_t p = lo; p < hi; ++p) {
                 const float* in = src + p * plane;
                 double s = 0.0;
                 for (std::size_t i = 0; i < plane; ++i) s += in[i];
                 dst[p] = static_cast<float>(s) * inv;
               }
             });
}

void global_avg_pool_backward(const float* dout, float* din,
                              std::size_t planes, std::size_t plane,
                              TaskScheduler& sched) {
  const float inv = 1.0f / static_cast<float>(plane);
  for_pieces(sched, planes, items_per_piece(plane),
             [=](std::size_t lo, std::size_t hi) {
               for (std::size_t p = lo; p < hi; ++p) {
                 std::fill(din + p * plane, din + (p + 1) * plane,
                           dout[p] * inv);
               }
             });
}

void bias_grad_accumulate(const float* dout, std::size_t images,
                          std::size_t channels, std::size_t plane,
                          float* grad, TaskScheduler& sched) {
  for_pieces(sched, channels, items_per_piece(images * plane),
             [=](std::size_t lo, std::size_t hi) {
               for (std::size_t c = lo; c < hi; ++c) {
                 for (std::size_t img = 0; img < images; ++img) {
                   const float* row = dout + (img * channels + c) * plane;
                   double s = 0.0;
                   for (std::size_t i = 0; i < plane; ++i) s += row[i];
                   grad[c] += static_cast<float>(s);
                 }
               }
             });
}

void accumulate_image_partials(const float* partials, std::size_t images,
                               std::size_t n, float* grad,
                               TaskScheduler& sched) {
  // Image-outer within a piece: the piece of grad stays cache-resident
  // while each image's partial streams past it once.
  for_pieces(sched, n, kPieceElems, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t img = 0; img < images; ++img) {
      const float* part = partials + img * n;
      for (std::size_t i = lo; i < hi; ++i) grad[i] += part[i];
    }
  });
}

}  // namespace pf15::nn
