#include "gemm/subpixel.hpp"

namespace pf15::gemm {

bool subpixel_applicable(const ConvGeom& g) {
  const std::size_t k = g.kernel_h;
  const std::size_t s = g.stride_h;
  const std::size_t p = g.pad_h;
  return g.kernel_w == k && g.stride_w == s && g.pad_w == p && s >= 2 &&
         k == 2 * p + s && p % s == 0 && g.in_h % s == 0 && g.in_w % s == 0;
}

ConvGeom subpixel_low_geom(const ConvGeom& g, std::size_t channels) {
  const std::size_t s = g.stride_h;
  ConvGeom low;
  low.in_c = channels;
  low.in_h = g.in_h / s;
  low.in_w = g.in_w / s;
  low.kernel_h = low.kernel_w = g.kernel_h / s;
  low.stride_h = low.stride_w = 1;
  low.pad_h = low.pad_w = g.pad_h / s;
  return low;
}

namespace {

/// Calls fn(w2_index, w_index) for every tap: W2[(a,b,c)][(o,u,v)] pairs
/// with W[o][c][a + s(t-1-u)][b + s(t-1-v)], a bijection because k = s·t.
template <typename Fn>
void for_each_filter_tap(const ConvGeom& g, std::size_t out_c, Fn&& fn) {
  const std::size_t s = g.stride_h;
  const std::size_t k = g.kernel_h;
  const std::size_t t = k / s;
  const std::size_t cols = out_c * t * t;
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = 0; b < s; ++b) {
      for (std::size_t c = 0; c < g.in_c; ++c) {
        const std::size_t row = ((a * s + b) * g.in_c + c) * cols;
        for (std::size_t o = 0; o < out_c; ++o) {
          const std::size_t w = (o * g.in_c + c) * k * k;
          for (std::size_t u = 0; u < t; ++u) {
            const std::size_t kh = a + s * (t - 1 - u);
            for (std::size_t v = 0; v < t; ++v) {
              const std::size_t kw = b + s * (t - 1 - v);
              fn(row + (o * t + u) * t + v, w + kh * k + kw);
            }
          }
        }
      }
    }
  }
}

}  // namespace

void subpixel_filters(const ConvGeom& g, std::size_t out_c,
                      const float* weight, float* w2) {
  for_each_filter_tap(g, out_c, [&](std::size_t i2, std::size_t i) {
    w2[i2] = weight[i];
  });
}

void subpixel_filters_accumulate(const ConvGeom& g, std::size_t out_c,
                                 const float* dw2, float* dweight) {
  for_each_filter_tap(g, out_c, [&](std::size_t i2, std::size_t i) {
    dweight[i] += dw2[i2];
  });
}

// Both permutations walk the high-resolution image row by row, so each
// source (or destination) row is read (written) once while it is hot and
// split across (merged from) the s phase planes of its column parity.
void space_to_depth(const ConvGeom& g, const float* image, float* s2d) {
  const std::size_t s = g.stride_h;
  const std::size_t h = g.in_h / s;
  const std::size_t w = g.in_w / s;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t a = 0; a < s; ++a) {
        const float* src = image + (c * g.in_h + s * y + a) * g.in_w;
        for (std::size_t b = 0; b < s; ++b) {
          float* dst = s2d + (((a * s + b) * g.in_c + c) * h + y) * w;
          for (std::size_t x = 0; x < w; ++x) dst[x] = src[s * x + b];
        }
      }
    }
  }
}

void depth_to_space(const ConvGeom& g, const float* s2d, float* image) {
  const std::size_t s = g.stride_h;
  const std::size_t h = g.in_h / s;
  const std::size_t w = g.in_w / s;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t a = 0; a < s; ++a) {
        float* dst = image + (c * g.in_h + s * y + a) * g.in_w;
        for (std::size_t b = 0; b < s; ++b) {
          const float* src = s2d + (((a * s + b) * g.in_c + c) * h + y) * w;
          for (std::size_t x = 0; x < w; ++x) dst[s * x + b] = src[x];
        }
      }
    }
  }
}

}  // namespace pf15::gemm
