#include "gemm/conv_backend.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gemm/fft_conv.hpp"
#include "gemm/gemm.hpp"
#include "gemm/scratch.hpp"
#include "gemm/simd.hpp"
#include "gemm/winograd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/json.hpp"

namespace pf15::gemm {

const char* to_string(ConvBackendKind kind) {
  switch (kind) {
    case ConvBackendKind::kIm2col:
      return "im2col";
    case ConvBackendKind::kWinograd:
      return "winograd";
    case ConvBackendKind::kFft:
      return "fft";
    case ConvBackendKind::kDirect:
      return "direct";
  }
  return "unknown";
}

std::optional<ConvBackendKind> parse_backend(const std::string& name) {
  if (name == "im2col") return ConvBackendKind::kIm2col;
  if (name == "winograd") return ConvBackendKind::kWinograd;
  if (name == "fft") return ConvBackendKind::kFft;
  if (name == "direct") return ConvBackendKind::kDirect;
  return std::nullopt;
}

const char* to_string(ConvPhase phase) {
  switch (phase) {
    case ConvPhase::kForward:
      return "forward";
    case ConvPhase::kBackwardData:
      return "backward_data";
    case ConvPhase::kBackwardFilter:
      return "backward_filter";
  }
  return "unknown";
}

std::optional<ConvPhase> parse_phase(const std::string& name) {
  if (name == "forward") return ConvPhase::kForward;
  if (name == "backward_data") return ConvPhase::kBackwardData;
  if (name == "backward_filter") return ConvPhase::kBackwardFilter;
  return std::nullopt;
}

namespace {

auto key_tuple(const ConvProblem& p) {
  return std::make_tuple(p.geom.in_c, p.geom.in_h, p.geom.in_w,
                         p.geom.kernel_h, p.geom.kernel_w, p.geom.stride_h,
                         p.geom.stride_w, p.geom.pad_h, p.geom.pad_w,
                         p.out_c);
}

}  // namespace

bool ConvProblem::operator<(const ConvProblem& other) const {
  return key_tuple(*this) < key_tuple(other);
}

bool ConvProblem::operator==(const ConvProblem& other) const {
  return key_tuple(*this) == key_tuple(other);
}

void ConvBackend::backward_data(const ConvProblem&, const float*,
                                const float*, float*, bool) const {
  PF15_CHECK_MSG(false, name() << " declines the backward_data phase");
}

void ConvBackend::backward_filter(const ConvProblem&, const float*,
                                  const float*, float*, bool) const {
  PF15_CHECK_MSG(false, name() << " declines the backward_filter phase");
}

namespace {

void add_bias(const float* bias, std::size_t out_c, std::size_t plane,
              float* out) {
  if (bias == nullptr) return;
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    const float b = bias[oc];
    float* dst = out + oc * plane;
    for (std::size_t i = 0; i < plane; ++i) dst[i] += b;
  }
}

// ---- im2col + GEMM ---------------------------------------------------------

class Im2colBackend final : public ConvBackend {
 public:
  ConvBackendKind kind() const override { return ConvBackendKind::kIm2col; }

  bool applicable(const ConvProblem&, ConvPhase) const override {
    return true;
  }

  void forward(const ConvProblem& p, const float* image, const float* weight,
               const float* bias, float* out,
               bool parallel_ok) const override {
    const std::size_t m = p.out_c;
    const std::size_t n = p.geom.lowered_cols();
    const std::size_t k = p.geom.lowered_rows();
    ScratchLease col_lease(k * n);
    float* col = col_lease.data();
    im2col(p.geom, image, col);
    if (parallel_ok) {
      sgemm_parallel(false, false, m, n, k, 1.0f, weight, k, col, n, 0.0f,
                     out, n);
    } else {
      sgemm(false, false, m, n, k, 1.0f, weight, k, col, n, 0.0f, out, n);
    }
    add_bias(bias, m, n, out);
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din,
                     bool parallel_ok) const override {
    const std::size_t m = p.out_c;
    const std::size_t n = p.geom.lowered_cols();
    const std::size_t k = p.geom.lowered_rows();
    ScratchLease dcol_lease(k * n);
    float* dcol = dcol_lease.data();
    // dcol = W^T (k x m) * dout (m x n); din = col2im(dcol).
    if (parallel_ok) {
      sgemm_parallel(true, false, k, n, m, 1.0f, weight, k, dout, n, 0.0f,
                     dcol, n);
    } else {
      sgemm(true, false, k, n, m, 1.0f, weight, k, dout, n, 0.0f, dcol, n);
    }
    std::memset(din, 0,
                p.geom.in_c * p.geom.in_h * p.geom.in_w * sizeof(float));
    col2im(p.geom, dcol, din);
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight,
                       bool parallel_ok) const override {
    const std::size_t m = p.out_c;
    const std::size_t n = p.geom.lowered_cols();
    const std::size_t k = p.geom.lowered_rows();
    ScratchLease col_lease(k * n);
    float* col = col_lease.data();
    // dW += dout (m x n) * col^T (n x k); recompute col from the input
    // rather than caching it across the batch.
    im2col(p.geom, image, col);
    if (parallel_ok) {
      sgemm_parallel(false, true, m, k, n, 1.0f, dout, n, col, n, 1.0f,
                     dweight, k);
    } else {
      sgemm(false, true, m, k, n, 1.0f, dout, n, col, n, 1.0f, dweight, k);
    }
  }

  std::uint64_t flops(const ConvProblem& p, ConvPhase) const override {
    // Forward, dX and dW are the three GEMM transposes of the same
    // (OC) x (OH·OW) x (C·KH·KW) product — identical FLOP count.
    return gemm::flops(p.out_c, p.geom.lowered_cols(),
                       p.geom.lowered_rows());
  }
};

// ---- Winograd F(2x2/4x4, 3x3) ----------------------------------------------

/// (OC, IC, 3, 3) -> (IC, OC, 3, 3) with each 3x3 tap rotated 180° — the
/// filter bank of the adjoint (backward-data) convolution.
void rotate_swap_filters(const float* weight, std::size_t in_c,
                         std::size_t out_c, float* wt) {
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      const float* src = weight + (oc * in_c + ic) * 9;
      float* dst = wt + (ic * out_c + oc) * 9;
      for (int i = 0; i < 9; ++i) dst[i] = src[8 - i];
    }
  }
}

class WinogradBackend final : public ConvBackend {
 public:
  /// The transformed filter bank U, computed once per (weights, geometry)
  /// and shared read-only by every image of a batch.
  struct Prep final : ConvPrep {
    std::vector<float> u;
    WinogradTile tile = WinogradTile::kF2x2;
  };

  ConvBackendKind kind() const override {
    return ConvBackendKind::kWinograd;
  }

  bool applicable(const ConvProblem& p, ConvPhase phase) const override {
    const bool fwd = winograd_applicable(p.geom.kernel_h, p.geom.stride_h) &&
                     p.geom.kernel_w == 3 && p.geom.stride_w == 1 &&
                     p.geom.pad_h == p.geom.pad_w;
    if (phase != ConvPhase::kBackwardData) return fwd;
    // Backward-data runs as a forward convolution of dout with the
    // rotated, channel-transposed filters at padding 2 - pad, so the
    // original padding must not exceed the kernel radius times two.
    return fwd && p.geom.pad_h <= 2;
  }

  void forward(const ConvProblem& p, const float* image, const float* weight,
               const float* bias, float* out,
               bool parallel_ok) const override {
    winograd_conv3x3(image, p.geom.in_c, p.geom.in_h, p.geom.in_w, weight,
                     p.out_c, p.geom.pad_h, bias, out,
                     winograd_pick_tile(p.geom.out_h(), p.geom.out_w()),
                     parallel_ok);
  }

  std::unique_ptr<ConvPrep> prepare_forward(
      const ConvProblem& p, const float* weight) const override {
    auto prep = std::make_unique<Prep>();
    prep->tile = winograd_pick_tile(p.geom.out_h(), p.geom.out_w());
    prep->u.resize(
        winograd_filter_xform_floats(p.geom.in_c, p.out_c, prep->tile));
    winograd_transform_filters(weight, p.geom.in_c, p.out_c, prep->tile,
                               prep->u.data());
    return prep;
  }

  void forward_prepared(const ConvProblem& p, const ConvPrep* prep,
                        const float* image, const float* weight,
                        const float* bias, float* out,
                        bool parallel_ok) const override {
    if (prep == nullptr) {
      forward(p, image, weight, bias, out, parallel_ok);
      return;
    }
    const auto& wp = static_cast<const Prep&>(*prep);
    winograd_conv3x3_pre(image, p.geom.in_c, p.geom.in_h, p.geom.in_w,
                         wp.u.data(), p.out_c, p.geom.pad_h, bias, out,
                         wp.tile, parallel_ok);
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din,
                     bool parallel_ok) const override {
    // din = dout * rot180(W)^T(channels): a stride-1 3x3 convolution of
    // the (OC, OH, OW) gradient at padding 2 - pad producing (C, H, W).
    const ConvGeom& g = p.geom;
    const std::size_t in_c = g.in_c;
    const std::size_t out_c = p.out_c;
    ScratchLease wt_lease(in_c * out_c * 9);
    float* wt = wt_lease.data();
    rotate_swap_filters(weight, in_c, out_c, wt);
    winograd_conv3x3(dout, out_c, g.out_h(), g.out_w(), wt, in_c,
                     2 - g.pad_h, nullptr, din,
                     winograd_pick_tile(g.in_h, g.in_w), parallel_ok);
  }

  std::unique_ptr<ConvPrep> prepare_backward_data(
      const ConvProblem& p, const float* weight) const override {
    // The adjoint convolution's filter bank — rot180, channels swapped —
    // and its Winograd transform depend only on the weights: build both
    // once here instead of per image inside the batch loop.
    const ConvGeom& g = p.geom;
    auto prep = std::make_unique<Prep>();
    prep->tile = winograd_pick_tile(g.in_h, g.in_w);
    std::vector<float> wt(g.in_c * p.out_c * 9);
    rotate_swap_filters(weight, g.in_c, p.out_c, wt.data());
    // Adjoint conv: IC = out_c (dout channels), OC = in_c.
    prep->u.resize(
        winograd_filter_xform_floats(p.out_c, g.in_c, prep->tile));
    winograd_transform_filters(wt.data(), p.out_c, g.in_c, prep->tile,
                               prep->u.data());
    return prep;
  }

  void backward_data_prepared(const ConvProblem& p, const ConvPrep* prep,
                              const float* dout, const float* weight,
                              float* din, bool parallel_ok) const override {
    if (prep == nullptr) {
      backward_data(p, dout, weight, din, parallel_ok);
      return;
    }
    const ConvGeom& g = p.geom;
    const auto& wp = static_cast<const Prep&>(*prep);
    winograd_conv3x3_pre(dout, p.out_c, g.out_h(), g.out_w(), wp.u.data(),
                         g.in_c, 2 - g.pad_h, nullptr, din, wp.tile,
                         parallel_ok);
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight,
                       bool parallel_ok) const override {
    const ConvGeom& g = p.geom;
    winograd_backward_filter3x3(image, g.in_c, g.in_h, g.in_w, dout, p.out_c,
                                g.pad_h, dweight,
                                winograd_pick_tile(g.out_h(), g.out_w()),
                                parallel_ok);
  }

  std::uint64_t flops(const ConvProblem& p, ConvPhase phase) const override {
    const ConvGeom& g = p.geom;
    switch (phase) {
      case ConvPhase::kBackwardData:
        return winograd_flops(p.out_c, g.in_c, g.out_h(), g.out_w(),
                              2 - std::min<std::size_t>(g.pad_h, 2),
                              winograd_pick_tile(g.in_h, g.in_w));
      case ConvPhase::kBackwardFilter:
        return winograd_backward_filter_flops(
            g.in_c, p.out_c, g.in_h, g.in_w, g.pad_h,
            winograd_pick_tile(g.out_h(), g.out_w()));
      case ConvPhase::kForward:
        break;
    }
    return winograd_flops(g.in_c, p.out_c, g.in_h, g.in_w, g.pad_h,
                          winograd_pick_tile(g.out_h(), g.out_w()));
  }
};

// ---- FFT -------------------------------------------------------------------

class FftBackend final : public ConvBackend {
 public:
  ConvBackendKind kind() const override { return ConvBackendKind::kFft; }

  bool applicable(const ConvProblem& p, ConvPhase) const override {
    // The spectral kernels take one kernel/stride/pad per problem
    // (square taps); within that shape every phase is implemented — the
    // gradients are exact adjoints in the transform domain
    // (fft_conv2d_backward_*), so FFT races im2col/Winograd/direct in
    // the backward autotunes too.
    return p.geom.kernel_h == p.geom.kernel_w &&
           p.geom.stride_h == p.geom.stride_w &&
           p.geom.pad_h == p.geom.pad_w;
  }

  void forward(const ConvProblem& p, const float* image, const float* weight,
               const float* bias, float* out,
               bool /*parallel_ok*/) const override {
    fft_conv2d(image, p.geom.in_c, p.geom.in_h, p.geom.in_w, weight,
               p.out_c, p.geom.kernel_h, p.geom.stride_h, p.geom.pad_h,
               bias, out);
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din,
                     bool /*parallel_ok*/) const override {
    fft_conv2d_backward_data(dout, p.geom.in_c, p.geom.in_h, p.geom.in_w,
                             weight, p.out_c, p.geom.kernel_h,
                             p.geom.stride_h, p.geom.pad_h, din);
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight,
                       bool /*parallel_ok*/) const override {
    fft_conv2d_backward_filter(image, p.geom.in_c, p.geom.in_h, p.geom.in_w,
                               dout, p.out_c, p.geom.kernel_h,
                               p.geom.stride_h, p.geom.pad_h, dweight);
  }

  std::uint64_t flops(const ConvProblem& p, ConvPhase) const override {
    // Every phase moves the same transform count and pointwise work
    // (see fft_conv.hpp), so the model is phase-independent.
    return fft_conv_flops(p.geom.in_c, p.out_c, p.geom.in_h, p.geom.in_w,
                          p.geom.kernel_h, p.geom.pad_h);
  }
};

// ---- direct (small-spatial) ------------------------------------------------

// Plain nested loops, no lowering and no transform. Arithmetic equals the
// GEMM path's, but for tiny output grids (detection heads on a coarse
// grid, the last layers of a pooled stack) skipping the (C·K²) x (OH·OW)
// materialisation beats both GEMM setup and transform overhead.
class DirectBackend final : public ConvBackend {
 public:
  ConvBackendKind kind() const override { return ConvBackendKind::kDirect; }

  bool applicable(const ConvProblem&, ConvPhase) const override {
    return true;
  }

  void forward(const ConvProblem& p, const float* image, const float* weight,
               const float* bias, float* out,
               bool /*parallel_ok*/) const override {
    const ConvGeom& g = p.geom;
    const std::size_t oh = g.out_h();
    const std::size_t ow = g.out_w();
    const std::size_t taps = g.kernel_h * g.kernel_w;
    // Interior output range on each axis: every kernel tap lands in
    // bounds, so the tap loops run branch-free and vectorize. Border
    // rows/columns (only where pad > 0) keep the per-tap bounds checks.
    // The accumulation order matches the branchy path exactly — for
    // interior pixels the skipped branches were never taken — so the
    // split changes no results, only the inner-loop shape.
    const std::size_t oy_lo =
        std::min(oh, (g.pad_h + g.stride_h - 1) / g.stride_h);
    const std::size_t oy_hi =
        (g.in_h + g.pad_h >= g.kernel_h)
            ? std::min(oh, (g.in_h + g.pad_h - g.kernel_h) / g.stride_h + 1)
            : oy_lo;
    const std::size_t ox_lo =
        std::min(ow, (g.pad_w + g.stride_w - 1) / g.stride_w);
    const std::size_t ox_hi = std::max(
        ox_lo,
        (g.in_w + g.pad_w >= g.kernel_w)
            ? std::min(ow, (g.in_w + g.pad_w - g.kernel_w) / g.stride_w + 1)
            : ox_lo);

    const auto border_pixel = [&](std::size_t oc, std::size_t oy,
                                  std::size_t ox, float b) {
      const std::ptrdiff_t iy0 =
          static_cast<std::ptrdiff_t>(oy * g.stride_h) -
          static_cast<std::ptrdiff_t>(g.pad_h);
      const std::ptrdiff_t ix0 =
          static_cast<std::ptrdiff_t>(ox * g.stride_w) -
          static_cast<std::ptrdiff_t>(g.pad_w);
      float acc = b;
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        const float* plane = image + ic * g.in_h * g.in_w;
        const float* w = weight + (oc * g.in_c + ic) * taps;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
          const std::ptrdiff_t sy = iy0 + static_cast<std::ptrdiff_t>(ky);
          if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            continue;
          }
          const float* row = plane + static_cast<std::size_t>(sy) * g.in_w;
          const float* wrow = w + ky * g.kernel_w;
          for (std::size_t kx = 0; kx < g.kernel_w; ++kx) {
            const std::ptrdiff_t sx = ix0 + static_cast<std::ptrdiff_t>(kx);
            if (sx < 0 || sx >= static_cast<std::ptrdiff_t>(g.in_w)) {
              continue;
            }
            acc += row[static_cast<std::size_t>(sx)] * wrow[kx];
          }
        }
      }
      return acc;
    };

    for (std::size_t oc = 0; oc < p.out_c; ++oc) {
      float* dst = out + oc * oh * ow;
      const float b = bias != nullptr ? bias[oc] : 0.0f;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        const bool row_interior = oy >= oy_lo && oy < oy_hi;
        if (!row_interior) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            dst[oy * ow + ox] = border_pixel(oc, oy, ox, b);
          }
          continue;
        }
        for (std::size_t ox = 0; ox < ox_lo; ++ox) {
          dst[oy * ow + ox] = border_pixel(oc, oy, ox, b);
        }
        const std::size_t iy0 = oy * g.stride_h - g.pad_h;
        for (std::size_t ox = ox_lo; ox < ox_hi; ++ox) {
          const std::size_t ix0 = ox * g.stride_w - g.pad_w;
          float acc = b;
          for (std::size_t ic = 0; ic < g.in_c; ++ic) {
            const float* plane = image + ic * g.in_h * g.in_w;
            const float* w = weight + (oc * g.in_c + ic) * taps;
            for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
              const float* row = plane + (iy0 + ky) * g.in_w + ix0;
              const float* wrow = w + ky * g.kernel_w;
              for (std::size_t kx = 0; kx < g.kernel_w; ++kx) {
                acc += row[kx] * wrow[kx];
              }
            }
          }
          dst[oy * ow + ox] = acc;
        }
        for (std::size_t ox = ox_hi; ox < ow; ++ox) {
          dst[oy * ow + ox] = border_pixel(oc, oy, ox, b);
        }
      }
    }
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din,
                     bool /*parallel_ok*/) const override {
    const ConvGeom& g = p.geom;
    const std::size_t oh = g.out_h();
    const std::size_t ow = g.out_w();
    const std::size_t taps = g.kernel_h * g.kernel_w;
    std::memset(din, 0, g.in_c * g.in_h * g.in_w * sizeof(float));
    for (std::size_t oc = 0; oc < p.out_c; ++oc) {
      const float* dplane = dout + oc * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>(oy * g.stride_h) -
            static_cast<std::ptrdiff_t>(g.pad_h);
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::ptrdiff_t ix0 =
              static_cast<std::ptrdiff_t>(ox * g.stride_w) -
              static_cast<std::ptrdiff_t>(g.pad_w);
          const float dv = dplane[oy * ow + ox];
          for (std::size_t ic = 0; ic < g.in_c; ++ic) {
            float* plane = din + ic * g.in_h * g.in_w;
            const float* w = weight + (oc * g.in_c + ic) * taps;
            for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
              const std::ptrdiff_t sy = iy0 + static_cast<std::ptrdiff_t>(ky);
              if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(g.in_h)) {
                continue;
              }
              float* row = plane + static_cast<std::size_t>(sy) * g.in_w;
              const float* wrow = w + ky * g.kernel_w;
              for (std::size_t kx = 0; kx < g.kernel_w; ++kx) {
                const std::ptrdiff_t sx =
                    ix0 + static_cast<std::ptrdiff_t>(kx);
                if (sx < 0 || sx >= static_cast<std::ptrdiff_t>(g.in_w)) {
                  continue;
                }
                row[static_cast<std::size_t>(sx)] += dv * wrow[kx];
              }
            }
          }
        }
      }
    }
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight,
                       bool /*parallel_ok*/) const override {
    const ConvGeom& g = p.geom;
    const std::size_t oh = g.out_h();
    const std::size_t ow = g.out_w();
    const std::size_t taps = g.kernel_h * g.kernel_w;
    for (std::size_t oc = 0; oc < p.out_c; ++oc) {
      const float* dplane = dout + oc * oh * ow;
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        const float* plane = image + ic * g.in_h * g.in_w;
        float* dw = dweight + (oc * g.in_c + ic) * taps;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
          for (std::size_t kx = 0; kx < g.kernel_w; ++kx) {
            double acc = 0.0;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t sy =
                  static_cast<std::ptrdiff_t>(oy * g.stride_h + ky) -
                  static_cast<std::ptrdiff_t>(g.pad_h);
              if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(g.in_h)) {
                continue;
              }
              const float* row =
                  plane + static_cast<std::size_t>(sy) * g.in_w;
              const float* drow = dplane + oy * ow;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::ptrdiff_t sx =
                    static_cast<std::ptrdiff_t>(ox * g.stride_w + kx) -
                    static_cast<std::ptrdiff_t>(g.pad_w);
                if (sx < 0 || sx >= static_cast<std::ptrdiff_t>(g.in_w)) {
                  continue;
                }
                acc += static_cast<double>(row[static_cast<std::size_t>(sx)]) *
                       drow[ox];
              }
            }
            dw[ky * g.kernel_w + kx] += static_cast<float>(acc);
          }
        }
      }
    }
  }

  std::uint64_t flops(const ConvProblem& p, ConvPhase) const override {
    // Same multiply-add count as the GEMM formulation, every phase.
    return gemm::flops(p.out_c, p.geom.lowered_cols(),
                       p.geom.lowered_rows());
  }
};

}  // namespace

const ConvBackend& backend(ConvBackendKind kind) {
  static const Im2colBackend im2col_backend;
  static const WinogradBackend winograd_backend;
  static const FftBackend fft_backend;
  static const DirectBackend direct_backend;
  switch (kind) {
    case ConvBackendKind::kIm2col:
      return im2col_backend;
    case ConvBackendKind::kWinograd:
      return winograd_backend;
    case ConvBackendKind::kFft:
      return fft_backend;
    case ConvBackendKind::kDirect:
      return direct_backend;
  }
  PF15_CHECK_MSG(false, "unknown ConvBackendKind "
                            << static_cast<int>(kind));
  return im2col_backend;  // unreachable
}

const std::vector<const ConvBackend*>& all_backends() {
  static const std::vector<const ConvBackend*> table = {
      &backend(ConvBackendKind::kIm2col),
      &backend(ConvBackendKind::kWinograd),
      &backend(ConvBackendKind::kFft),
      &backend(ConvBackendKind::kDirect),
  };
  return table;
}

std::vector<const ConvBackend*> applicable_backends(const ConvProblem& p,
                                                    ConvPhase phase) {
  std::vector<const ConvBackend*> out;
  for (const ConvBackend* b : all_backends()) {
    if (b->applicable(p, phase)) out.push_back(b);
  }
  return out;
}

std::vector<const ConvBackend*> candidate_backends(
    const ConvProblem& p, const AutotuneOptions& opt, ConvPhase phase) {
  const double ref_flops = static_cast<double>(
      backend(ConvBackendKind::kIm2col).flops(p, phase));
  std::vector<const ConvBackend*> out;
  for (const ConvBackend* b : applicable_backends(p, phase)) {
    // Reject hopeless candidates on the analytic cost model alone: timing
    // FFT on a 3x3 problem would cost orders of magnitude more than the
    // convolution it is supposed to speed up. The direct backend's flops
    // equal im2col's, so the cutoff never rejects it, and that is what
    // keeps it a candidate: it loses the large layers by 13-30x
    // (hep.conv3 forward: 92 ms vs 4.5 ms for im2col), but it wins tiny
    // output grids such as the climate heads (80 -> 1-4 channels at
    // 2 px), where lowering costs more than the arithmetic. Timing it
    // costs the same order as timing im2col.
    if (b->kind() != ConvBackendKind::kIm2col &&
        static_cast<double>(b->flops(p, phase)) >
            opt.flops_cutoff * ref_flops) {
      continue;
    }
    out.push_back(b);
  }
  return out;
}

double benchmark_backend(const ConvBackend& b, const ConvProblem& p,
                         const AutotuneOptions& opt, ConvPhase phase,
                         bool parallel_ok) {
  PF15_CHECK_MSG(b.applicable(p, phase),
                 "benchmark_backend: " << b.name() << " not applicable to "
                                       << to_string(phase));
  const ConvGeom& g = p.geom;
  // Deterministic synthetic operands: the same (problem, phase) always
  // tunes on the same data, so timings (and in quiet conditions, winners)
  // are reproducible across processes.
  std::uint64_t stream = static_cast<std::uint64_t>(phase) + 1;
  for (auto v : {g.in_c, g.in_h, g.in_w, g.kernel_h, g.kernel_w, g.stride_h,
                 g.stride_w, g.pad_h, g.pad_w, p.out_c}) {
    stream = stream * 0x100000001b3ULL + v;
  }
  Rng rng(opt.seed, stream);
  const std::size_t image_n = g.in_c * g.in_h * g.in_w;
  const std::size_t out_n = p.out_c * g.lowered_cols();
  std::vector<float> image(image_n);
  for (auto& v : image) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> weight(p.out_c * g.lowered_rows());
  for (auto& v : weight) v = rng.uniform(-0.5f, 0.5f);
  std::vector<float> bias(p.out_c);
  for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
  std::vector<float> dout;
  if (phase != ConvPhase::kForward) {
    dout.resize(out_n);
    for (auto& v : dout) v = rng.uniform(-1.0f, 1.0f);
  }

  std::vector<float> result(phase == ConvPhase::kForward  ? out_n
                            : phase == ConvPhase::kBackwardData
                                ? image_n
                                : weight.size(),
                            0.0f);
  const auto run = [&] {
    switch (phase) {
      case ConvPhase::kForward:
        b.forward(p, image.data(), weight.data(), bias.data(), result.data(),
                  parallel_ok);
        break;
      case ConvPhase::kBackwardData:
        b.backward_data(p, dout.data(), weight.data(), result.data(),
                        parallel_ok);
        break;
      case ConvPhase::kBackwardFilter:
        b.backward_filter(p, image.data(), dout.data(), result.data(),
                          parallel_ok);
        break;
    }
  };

  for (std::size_t i = 0; i < opt.warmup; ++i) run();
  double best = 0.0;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, opt.reps); ++i) {
    WallTimer timer;
    run();
    const double us = timer.seconds() * 1e6;
    if (i == 0 || us < best) best = us;
  }
  return best;
}

ConvPlan autotune(const ConvProblem& p, const AutotuneOptions& opt,
                  ConvPhase phase, bool parallel_ok) {
  const ConvBackend& reference = backend(ConvBackendKind::kIm2col);
  ConvPlan plan;
  plan.tuned = true;
  plan.im2col_us = benchmark_backend(reference, p, opt, phase, parallel_ok);
  plan.kind = ConvBackendKind::kIm2col;
  plan.best_us = plan.im2col_us;
  for (const ConvBackend* b : candidate_backends(p, opt, phase)) {
    if (b->kind() == ConvBackendKind::kIm2col) continue;
    const double us = benchmark_backend(*b, p, opt, phase, parallel_ok);
    if (us < plan.best_us) {
      plan.best_us = us;
      plan.kind = b->kind();
    }
  }
  return plan;
}

// ---- plan cache ------------------------------------------------------------

namespace {

constexpr const char* kCacheFormat = "pf15.conv_plan_cache";

/// Hardware signature stored in the cache header: plans are timings, so a
/// file tuned on a different machine shape must not silently win here.
/// The active SIMD tier is part of the shape — an AVX2-tuned file names
/// winners that a scalar-only host (or a PF15_SIMD=off run) would pick
/// differently, and vice versa, so a mismatch re-tunes from scratch.
perf::Json hardware_signature() {
  perf::Json hw = perf::Json::object();
  hw.set("threads",
         static_cast<std::size_t>(std::thread::hardware_concurrency()));
  hw.set("pointer_bits", 8 * sizeof(void*));
  hw.set("isa", simd_isa_string());
  return hw;
}

/// RAII holder for the global cache: loads the persisted plans on first
/// use, writes them back when the process exits normally.
struct GlobalConvPlanCache {
  ConvPlanCache cache;

  GlobalConvPlanCache() {
    const std::string path = ConvPlanCache::persist_path();
    if (path.empty()) return;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return;  // cold start is normal
    try {
      cache.load(path);
      PF15_DEBUG("conv plan cache: warm start with " << cache.size()
                                                     << " plans from "
                                                     << path);
    } catch (const Error& e) {
      PF15_WARN("conv plan cache: ignoring " << path << " (" << e.what()
                                             << "); tuning from scratch");
    }
  }

  ~GlobalConvPlanCache() {
    const std::string path = ConvPlanCache::persist_path();
    // Nothing measured this run (e.g. a test that only forced overrides):
    // leave whatever is on disk alone rather than clobbering real plans.
    if (path.empty() || cache.tuned_size() == 0) return;
    try {
      cache.save(path);  // save() merges with the file; see its contract
    } catch (...) {
      // Destructor during process teardown: nothing sane left to do.
    }
  }
};

/// One record of the on-disk format, decoupled from the cache's private
/// key type so parsing is shared by load() and save()'s disk merge.
struct StoredPlan {
  ConvProblem problem;
  ConvPhase phase = ConvPhase::kForward;
  bool parallel_ok = false;
  std::size_t batch = 1;  // bucket (power of two)
  ConvPlan plan;
};

/// Reads and validates a parsed plan-cache document: header (format name,
/// version, hardware signature) and every entry. Throws IoError on any
/// defect; `origin` names the file or stream in the message.
std::vector<StoredPlan> parse_plan_doc(const perf::Json& doc,
                                       const std::string& origin) {
  const auto reject = [&](const std::string& why) -> IoError {
    return IoError("conv plan cache: " + origin + ": " + why);
  };
  try {
    if (doc.get("format").as_string() != kCacheFormat) {
      throw reject("not a conv plan cache file");
    }
    const int version = static_cast<int>(doc.get("version").as_number());
    if (version != kConvPlanCacheVersion) {
      throw reject("format version " + std::to_string(version) +
                   " != expected " +
                   std::to_string(kConvPlanCacheVersion));
    }
    const perf::Json& hw = doc.get("hardware");
    const perf::Json current = hardware_signature();
    if (hw.get("threads").as_number() !=
            current.get("threads").as_number() ||
        hw.get("pointer_bits").as_number() !=
            current.get("pointer_bits").as_number() ||
        hw.get("isa").as_string() != current.get("isa").as_string()) {
      throw reject("hardware signature mismatch (plans are timings; "
                   "re-tune on this machine)");
    }
    const perf::Json& entries = doc.get("plans");
    if (!entries.is_array()) throw reject("'plans' is not an array");
    std::vector<StoredPlan> out;
    out.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const perf::Json& entry = entries.at(i);
      StoredPlan stored;
      ConvGeom& g = stored.problem.geom;
      const auto field = [&](const char* name) {
        return static_cast<std::size_t>(entry.get(name).as_number());
      };
      g.in_c = field("in_c");
      g.in_h = field("in_h");
      g.in_w = field("in_w");
      g.kernel_h = field("kernel_h");
      g.kernel_w = field("kernel_w");
      g.stride_h = field("stride_h");
      g.stride_w = field("stride_w");
      g.pad_h = field("pad_h");
      g.pad_w = field("pad_w");
      stored.problem.out_c = field("out_c");
      const auto phase = parse_phase(entry.get("phase").as_string());
      if (!phase.has_value()) {
        throw reject("unknown phase '" + entry.get("phase").as_string() +
                     "'");
      }
      stored.phase = *phase;
      stored.parallel_ok = entry.get("parallel_ok").as_bool();
      stored.batch = conv_batch_bucket(field("batch"));
      const auto kind = parse_backend(entry.get("backend").as_string());
      if (!kind.has_value()) {
        throw reject("unknown backend '" + entry.get("backend").as_string() +
                     "'");
      }
      stored.plan.kind = *kind;
      // A plan naming a backend that cannot run its (problem, phase) —
      // hand-edited or corrupted file — must never reach dispatch: the
      // kernels trust applicability (e.g. Winograd reads weights as 3x3).
      if (!backend(*kind).applicable(stored.problem, *phase)) {
        throw reject(std::string("backend '") + to_string(*kind) +
                     "' not applicable to stored problem in phase " +
                     to_string(*phase));
      }
      stored.plan.best_us = entry.get("best_us").as_number();
      stored.plan.im2col_us = entry.get("im2col_us").as_number();
      stored.plan.tuned = entry.get("tuned").as_bool();
      out.push_back(stored);
    }
    return out;
  } catch (const IoError&) {
    throw;
  } catch (const Error& e) {
    throw reject(e.what());
  }
}

std::vector<StoredPlan> parse_plan_file(const std::string& path) {
  return parse_plan_doc(perf::Json::read_file(path), path);
}

}  // namespace

std::size_t conv_batch_bucket(std::size_t n) {
  if (n <= 1) return 1;
  std::size_t bucket = 1;
  while (bucket < n) {
    // Saturate at the largest representable power of two: doubling again
    // would wrap to 0 and loop forever on absurd n (e.g. a corrupted
    // "batch" field in a plan-cache document).
    if (bucket > std::numeric_limits<std::size_t>::max() / 2) return bucket;
    bucket <<= 1;
  }
  return bucket;
}

ConvPlanCache& ConvPlanCache::global() {
  static GlobalConvPlanCache holder;
  return holder.cache;
}

std::string ConvPlanCache::persist_path() {
  const char* env = std::getenv("PF15_CONV_PLAN_CACHE");
  if (env == nullptr) return "pf15_conv_plans.json";
  const std::string value = env;
  if (value.empty() || value == "off" || value == "0" || value == "none") {
    return "";
  }
  return value;
}

namespace {

/// Registry counters the plan cache feeds. First-sight tunes are the
/// expensive event (a micro-benchmark race per miss), so they also carry
/// a duration histogram and a trace span — the warm-start story is now
/// checkable from a metrics snapshot: a warm process shows zero misses.
struct CacheMetrics {
  obs::Counter& hits = obs::MetricsRegistry::global().counter(
      "pf15_convplan_hits_total", "plan cache lookups answered from memory");
  obs::Counter& misses = obs::MetricsRegistry::global().counter(
      "pf15_convplan_misses_total", "plan cache first-sight tunes");
  obs::Histogram& tune_seconds = obs::MetricsRegistry::global().histogram(
      "pf15_convplan_tune_seconds",
      obs::Histogram::exponential_bounds(1e-4, 4.0, 12),
      "autotune micro-benchmark wall time per miss");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

ConvPlan ConvPlanCache::plan(const ConvProblem& p, ConvPhase phase,
                             bool parallel_ok, std::size_t batch) {
  const Key key{p, phase, parallel_ok, conv_batch_bucket(batch)};
  UniqueLock lock(mutex_);
  for (;;) {
    auto ov = overrides_.find(OverrideKey{p, phase});
    if (ov != overrides_.end()) {
      ++hits_;
      cache_metrics().hits.add(1);
      return ov->second;
    }
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      cache_metrics().hits.add(1);
      return it->second;
    }
    // Dedupe concurrent first sights of the same key: exactly one thread
    // tunes it (racing duplicate micro-benchmarks would distort each
    // other's timings), the rest wait for the result. Distinct keys tune
    // concurrently, and cache hits never block behind a tuning miss.
    if (tuning_.insert(key).second) break;
    tuning_cv_.wait(lock);
  }
  ++misses_;
  cache_metrics().misses.add(1);
  lock.unlock();
  ConvPlan tuned;
  WallTimer tune_timer;
  try {
    // Dynamic span name: the tuned geometry, so a trace shows *which*
    // first sight cost the time. Built only under an enabled tracer.
    obs::TraceSpan tune_span(
        obs::trace_enabled()
            ? "conv_tune " + std::string(to_string(phase)) + " " +
                  std::to_string(p.geom.in_c) + "x" +
                  std::to_string(p.geom.in_h) + "x" +
                  std::to_string(p.geom.in_w) + "->" +
                  std::to_string(p.out_c) + " k" +
                  std::to_string(p.geom.kernel_h) + " b" +
                  std::to_string(conv_batch_bucket(batch))
            : std::string(),
        "tune");
    tuned = autotune(p, opt_, phase, parallel_ok);
  } catch (...) {
    lock.lock();
    tuning_.erase(key);
    tuning_cv_.notify_all();
    throw;
  }
  cache_metrics().tune_seconds.observe(tune_timer.seconds());
  lock.lock();
  plans_.emplace(key, tuned);
  tuning_.erase(key);
  tuning_cv_.notify_all();
  // An insert() that landed while we were timing is an operator override
  // and must win over the tuned result.
  auto ov = overrides_.find(OverrideKey{p, phase});
  if (ov != overrides_.end()) return ov->second;
  return plans_.find(key)->second;
}

std::optional<ConvPlan> ConvPlanCache::lookup(const ConvProblem& p,
                                              ConvPhase phase,
                                              bool parallel_ok,
                                              std::size_t batch) const {
  MutexLock lock(mutex_);
  auto ov = overrides_.find(OverrideKey{p, phase});
  if (ov != overrides_.end()) return ov->second;
  auto it = plans_.find(Key{p, phase, parallel_ok, conv_batch_bucket(batch)});
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

void ConvPlanCache::insert(const ConvProblem& p, const ConvPlan& plan) {
  insert(p, ConvPhase::kForward, plan);
}

void ConvPlanCache::insert(const ConvProblem& p, ConvPhase phase,
                           const ConvPlan& plan) {
  MutexLock lock(mutex_);
  overrides_[OverrideKey{p, phase}] = plan;
}

namespace {

/// Renders a set of keyed plans as the canonical cache document.
perf::Json render_plan_doc(
    const std::map<std::tuple<ConvProblem, ConvPhase, bool, std::size_t>,
                   ConvPlan>& plans) {
  perf::Json doc = perf::Json::object();
  doc.set("format", kCacheFormat);
  doc.set("version", kConvPlanCacheVersion);
  doc.set("hardware", hardware_signature());
  perf::Json entries = perf::Json::array();
  for (const auto& [key, plan] : plans) {
    const auto& [problem, phase, parallel_ok, batch] = key;
    const ConvGeom& g = problem.geom;
    perf::Json entry = perf::Json::object();
    entry.set("in_c", g.in_c);
    entry.set("in_h", g.in_h);
    entry.set("in_w", g.in_w);
    entry.set("kernel_h", g.kernel_h);
    entry.set("kernel_w", g.kernel_w);
    entry.set("stride_h", g.stride_h);
    entry.set("stride_w", g.stride_w);
    entry.set("pad_h", g.pad_h);
    entry.set("pad_w", g.pad_w);
    entry.set("out_c", problem.out_c);
    entry.set("phase", to_string(phase));
    entry.set("parallel_ok", parallel_ok);
    entry.set("batch", batch);
    entry.set("backend", to_string(plan.kind));
    entry.set("best_us", plan.best_us);
    entry.set("im2col_us", plan.im2col_us);
    entry.set("tuned", plan.tuned);
    entries.push_back(std::move(entry));
  }
  doc.set("plans", std::move(entries));
  return doc;
}

}  // namespace

void ConvPlanCache::save(const std::string& path) const {
  // Start from what is already on disk, if anything valid is there:
  // another process may have tuned geometries this one never saw, and a
  // plain rewrite from the in-memory view would drop their measurements
  // (the lost-update race between a long-lived trainer and short bench
  // runs sharing a path).
  std::map<Key, ConvPlan> merged;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      for (const StoredPlan& s : parse_plan_file(path)) {
        merged[Key{s.problem, s.phase, s.parallel_ok, s.batch}] = s.plan;
      }
    } catch (const Error&) {
      // Unreadable or mismatched file: rewrite it from scratch below.
    }
  }
  {
    MutexLock lock(mutex_);
    for (const auto& [key, plan] : plans_) {
      // Persist measurements only (see the header contract); our own
      // measurements beat whatever the file had for the same key.
      if (plan.tuned) merged[key] = plan;
    }
  }

  const perf::Json doc = render_plan_doc(merged);
  // Atomic publish: concurrent processes saving the same path each write
  // their own temp file; rename makes the last writer win with no torn
  // reads for concurrent loaders.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned>(::getpid()));
  doc.write_file(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("ConvPlanCache::save: cannot rename " + tmp + " to " +
                  path);
  }
}

std::string ConvPlanCache::dump() const {
  std::map<Key, ConvPlan> tuned;
  {
    MutexLock lock(mutex_);
    for (const auto& [key, plan] : plans_) {
      if (plan.tuned) tuned[key] = plan;
    }
  }
  return render_plan_doc(tuned).dump();
}

void ConvPlanCache::load(const std::string& path) {
  const std::vector<StoredPlan> stored = parse_plan_file(path);
  MutexLock lock(mutex_);
  // emplace: entries already in memory win — they are this process's
  // freshest measurements (or explicit overrides).
  for (const StoredPlan& s : stored) {
    plans_.emplace(Key{s.problem, s.phase, s.parallel_ok, s.batch}, s.plan);
  }
}

void ConvPlanCache::load_document(const std::string& text,
                                  const std::string& origin) {
  const std::vector<StoredPlan> stored =
      parse_plan_doc(perf::Json::parse(text), origin);
  MutexLock lock(mutex_);
  for (const StoredPlan& s : stored) {
    plans_.emplace(Key{s.problem, s.phase, s.parallel_ok, s.batch}, s.plan);
  }
}

void ConvPlanCache::clear() {
  MutexLock lock(mutex_);
  plans_.clear();
  overrides_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::size_t ConvPlanCache::size() const {
  MutexLock lock(mutex_);
  return plans_.size() + overrides_.size();
}

std::size_t ConvPlanCache::tuned_size() const {
  MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, plan] : plans_) {
    if (plan.tuned) ++n;
  }
  return n;
}

std::uint64_t ConvPlanCache::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t ConvPlanCache::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

}  // namespace pf15::gemm
