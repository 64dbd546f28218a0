#include "gemm/im2col.hpp"

#include <algorithm>
#include <vector>

#include "gemm/scratch.hpp"

// Both kernels move whole rows of one (channel, kh, kw) tap and test no
// bound per element. im2col on outputs wider than four copies each
// channel into a zero-bordered plane once and gathers every tap row from
// it. col2im, and im2col on narrower outputs, work on the span of each
// row whose input lies inside the image; which span that is depends on
// the tap alone, so the ranges are worked out once per call. The stride
// along a row is a template parameter (1 and 2 cover every net here; 0
// reads it from the geometry).
//
// Outputs at most four wide (the deep layers' 2-4 px planes) put the
// channel loop innermost: a tap's spans are the same in every channel, so
// their set-up is paid once instead of once per channel. Wider outputs
// keep one channel's plane in cache across all of its taps.
//
// Results are bit-identical to the per-element bounds-checked loops these
// replace: im2col only copies and zero-fills, and col2im adds the taps
// onto each image element in the same (kh, kw) order.

namespace pf15::gemm {
namespace {

// Rows shorter than a vector skip the vectorised loop: on small planes
// its set-up would cost more than the row.

template <std::size_t S>
void copy_row(float* dst, const float* src, std::size_t n,
              std::size_t stride) {
  const std::size_t s = S != 0 ? S : stride;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) dst[i + j] = src[(i + j) * s];
  }
  switch (n - i) {
    case 3:
      dst[i + 2] = src[(i + 2) * s];
      [[fallthrough]];
    case 2:
      dst[i + 1] = src[(i + 1) * s];
      [[fallthrough]];
    case 1:
      dst[i] = src[i * s];
      [[fallthrough]];
    default:
      break;
  }
}

template <std::size_t S>
void add_row(float* dst, const float* src, std::size_t n,
             std::size_t stride) {
  const std::size_t s = S != 0 ? S : stride;
  if (n < 4) {
    for (std::size_t i = 0; i < (n & 3); ++i) dst[i * s] += src[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i * s] += src[i];
  }
}

/// dst[2i] += even[i], dst[2i + 1] += odd[i]: the two taps of a stride-2
/// parity pair write alternate elements of one contiguous run.
void add_pair_row(float* dst, const float* even, const float* odd,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[2 * i] += even[i];
    dst[2 * i + 1] += odd[i];
  }
}

/// Output positions [lo, hi) along one axis whose input index
/// o * stride + tap - pad lies inside [0, in); `first` is the input index
/// of position lo and is meaningful only when lo < hi.
struct TapRange {
  std::size_t lo = 0, hi = 0, first = 0;
  bool empty() const { return lo == hi; }
};

TapRange tap_range(std::size_t in, std::size_t out, std::size_t tap,
                   std::size_t stride, std::size_t pad) {
  TapRange r;
  r.lo = std::min(out, tap >= pad ? 0 : (pad - tap + stride - 1) / stride);
  r.hi = in + pad > tap ? (in + pad - tap - 1) / stride + 1 : 0;
  r.hi = std::clamp(r.hi, r.lo, out);
  if (!r.empty()) r.first = r.lo * stride + tap - pad;
  return r;
}

/// The ranges along h (per kh) and along w (per kw) of every tap of one
/// geometry, on the stack for every kernel this repository builds.
class TapRanges {
 public:
  explicit TapRanges(const ConvGeom& g) {
    ranges_ = local_;
    if (g.kernel_h + g.kernel_w > std::size(local_)) {
      heap_.resize(g.kernel_h + g.kernel_w);
      ranges_ = heap_.data();
    }
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      ranges_[kh] = tap_range(g.in_h, g.out_h(), kh, g.stride_h, g.pad_h);
    }
    ranges_w_ = ranges_ + g.kernel_h;
    for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
      ranges_w_[kw] = tap_range(g.in_w, g.out_w(), kw, g.stride_w, g.pad_w);
    }
  }
  TapRanges(const TapRanges&) = delete;
  TapRanges& operator=(const TapRanges&) = delete;

  const TapRange& h(std::size_t kh) const { return ranges_[kh]; }
  const TapRange& w(std::size_t kw) const { return ranges_w_[kw]; }

 private:
  TapRange local_[32];
  std::vector<TapRange> heap_;
  TapRange* ranges_ = nullptr;
  TapRange* ranges_w_ = nullptr;
};

/// Calls f(tap, image_off, col_off, n) for every in-image span, tap by tap
/// in (kh, kw) order: n positions from col_off within the tap's lowered
/// block of one channel, reading or writing the image elements
/// image_off + i * stride_w of that channel's plane.
template <class F>
void for_each_span(const ConvGeom& g, const TapRanges& t, F&& f) {
  const std::size_t ow = g.out_w();
  for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
    const TapRange& ry = t.h(kh);
    for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
      const TapRange& rx = t.w(kw);
      if (ry.empty() || rx.empty()) continue;
      for (std::size_t y = ry.lo; y < ry.hi; ++y) {
        const std::size_t iy = ry.first + (y - ry.lo) * g.stride_h;
        f(kh * g.kernel_w + kw, iy * g.in_w + rx.first, y * ow + rx.lo,
          rx.hi - rx.lo);
      }
    }
  }
}

template <std::size_t S>
void im2col_rows(const ConvGeom& g, const float* image, float* col) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t plane = g.in_h * g.in_w;
  if (ow <= 4) {
    const std::size_t n_col = oh * ow;
    const std::size_t n_chan = g.kernel_h * g.kernel_w * n_col;
    std::fill_n(col, g.in_c * n_chan, 0.0f);
    const TapRanges taps(g);
    for_each_span(g, taps, [&](std::size_t tap, std::size_t image_off,
                               std::size_t col_off, std::size_t n) {
      float* dst = col + tap * n_col + col_off;
      const float* src = image + image_off;
      for (std::size_t c = 0; c < g.in_c; ++c) {
        copy_row<S>(dst + c * n_chan, src + c * plane, n, g.stride_w);
      }
    });
    return;
  }
  // Copy each channel into a plane with a zero border, so every tap row
  // is one gather from it.
  const std::size_t ph = g.in_h + 2 * g.pad_h;
  const std::size_t pw = g.in_w + 2 * g.pad_w;
  ScratchLease lease(ph * pw);
  float* padded = lease.data();
  std::fill_n(padded, g.pad_h * pw, 0.0f);
  for (std::size_t y = 0; y < g.in_h; ++y) {
    float* row = padded + (g.pad_h + y) * pw;
    std::fill_n(row, g.pad_w, 0.0f);
    std::fill_n(row + g.pad_w + g.in_w, g.pad_w, 0.0f);
  }
  std::fill_n(padded + (g.pad_h + g.in_h) * pw, g.pad_h * pw, 0.0f);
  float* dst = col;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    const float* src = image + c * plane;
    for (std::size_t y = 0; y < g.in_h; ++y) {
      copy_row<1>(padded + (g.pad_h + y) * pw + g.pad_w, src + y * g.in_w,
                  g.in_w, 1);
    }
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        for (std::size_t y = 0; y < oh; ++y, dst += ow) {
          copy_row<S>(dst, padded + (y * g.stride_h + kh) * pw + kw, ow,
                      g.stride_w);
        }
      }
    }
  }
}

/// Adds the stride-2 taps a = (kh, kw) and b = (kh, kw + 1) of one
/// channel, whose lowered blocks start at `col` and `col + n_col`. Tap b
/// may reach one more position on the left and tap a one more on the
/// right; those go singly.
void add_pair(const ConvGeom& g, const TapRange& ry, const TapRange& ra,
              const TapRange& rb, const float* col, float* plane) {
  const std::size_t ow = g.out_w();
  const std::size_t lo = std::max(ra.lo, rb.lo);
  const std::size_t hi = std::max(lo, std::min(ra.hi, rb.hi));
  for (std::size_t y = ry.lo; y < ry.hi; ++y) {
    float* d = plane + (ry.first + (y - ry.lo) * g.stride_h) * g.in_w;
    const float* sa = col + y * ow;
    const float* sb = sa + g.out_h() * ow;
    if (lo < hi) {
      add_pair_row(d + ra.first + (lo - ra.lo) * 2, sa + lo, sb + lo,
                   hi - lo);
    }
    for (const auto& [r, s] : {std::pair{&ra, sa}, std::pair{&rb, sb}}) {
      if (r->empty()) continue;
      const std::size_t left = std::min(lo, r->hi);
      if (r->lo < left) add_row<2>(d + r->first, s + r->lo, left - r->lo, 2);
      const std::size_t right = std::max(hi, r->lo);
      if (right < r->hi) {
        add_row<2>(d + r->first + (right - r->lo) * 2, s + right,
                   r->hi - right, 2);
      }
    }
  }
}

template <std::size_t S>
void col2im_rows(const ConvGeom& g, const float* col, float* image) {
  const std::size_t ow = g.out_w();
  const std::size_t n_col = g.out_h() * ow;
  const std::size_t n_chan = g.kernel_h * g.kernel_w * n_col;
  const std::size_t plane = g.in_h * g.in_w;
  const TapRanges taps(g);
  if (ow <= 4) {
    for_each_span(g, taps, [&](std::size_t tap, std::size_t image_off,
                               std::size_t col_off, std::size_t n) {
      float* dst = image + image_off;
      const float* src = col + tap * n_col + col_off;
      for (std::size_t c = 0; c < g.in_c; ++c) {
        add_row<S>(dst + c * plane, src + c * n_chan, n, g.stride_w);
      }
    });
    return;
  }
  // Taps kw and kw + 1 of a stride-2 row land on elements of opposite
  // parity, so one pass over the positions both reach keeps every
  // element's (kh, kw) order. The pass pays off only on wide rows.
  const std::size_t paired = S == 2 && ow >= 32 ? g.kernel_w & ~1 : 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    float* dst = image + c * plane;
    const float* src = col + c * n_chan;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapRange& ry = taps.h(kh);
      if (ry.empty()) continue;
      const float* tap = src + kh * g.kernel_w * n_col;
      std::size_t kw = 0;
      for (; kw < paired; kw += 2) {
        add_pair(g, ry, taps.w(kw), taps.w(kw + 1), tap + kw * n_col,
                 dst);
      }
      for (; kw < g.kernel_w; ++kw) {
        const TapRange& rx = taps.w(kw);
        if (rx.empty()) continue;
        for (std::size_t y = ry.lo; y < ry.hi; ++y) {
          const std::size_t iy = ry.first + (y - ry.lo) * g.stride_h;
          add_row<S>(dst + iy * g.in_w + rx.first,
                     tap + kw * n_col + y * ow + rx.lo, rx.hi - rx.lo,
                     g.stride_w);
        }
      }
    }
  }
}

}  // namespace

void im2col(const ConvGeom& g, const float* image, float* col) {
  switch (g.stride_w) {
    case 1:
      return im2col_rows<1>(g, image, col);
    case 2:
      return im2col_rows<2>(g, image, col);
    default:
      return im2col_rows<0>(g, image, col);
  }
}

void col2im(const ConvGeom& g, const float* col, float* image) {
  switch (g.stride_w) {
    case 1:
      return col2im_rows<1>(g, col, image);
    case 2:
      return col2im_rows<2>(g, col, image);
    default:
      return col2im_rows<0>(g, col, image);
  }
}

}  // namespace pf15::gemm
