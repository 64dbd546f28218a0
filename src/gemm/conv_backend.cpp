#include "gemm/conv_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gemm/gemm.hpp"
#include "gemm/scratch.hpp"
#include "gemm/simd.hpp"
#include "gemm/subpixel.hpp"
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
    case ConvBackendKind::kSubpixel:
      return "subpixel";
  }
  return "unknown";
}

std::optional<ConvBackendKind> parse_backend(const std::string& name) {
  if (name == "im2col") return ConvBackendKind::kIm2col;
  if (name == "winograd") return ConvBackendKind::kWinograd;
  if (name == "subpixel") return ConvBackendKind::kSubpixel;
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
  /// The filter matrix in sgemm's panels (W for forward, Wᵀ for
  /// backward-data), packed once per batch instead of once per image.
  struct Prep final : ConvPrep {
    explicit Prep(PackedA packed) : w(std::move(packed)) {}
    PackedA w;
  };

  ConvBackendKind kind() const override { return ConvBackendKind::kIm2col; }

  bool applicable(const ConvProblem&, ConvPhase) const override {
    return true;
  }

  void forward(const ConvProblem& p, const float* image, const float* weight,
               const float* bias, float* out) const override {
    forward_prepared(p, nullptr, image, weight, bias, out);
  }

  std::unique_ptr<ConvPrep> prepare_forward(
      const ConvProblem& p, const float* weight) const override {
    const std::size_t k = p.geom.lowered_rows();
    return std::make_unique<Prep>(
        PackedA(false, p.out_c, p.geom.lowered_cols(), k, weight, k));
  }

  void forward_prepared(const ConvProblem& p, const ConvPrep* prep,
                        const float* image, const float* weight,
                        const float* bias, float* out) const override {
    const std::size_t m = p.out_c;
    const std::size_t n = p.geom.lowered_cols();
    const std::size_t k = p.geom.lowered_rows();
    ScratchLease col_lease(k * n);
    float* col = col_lease.data();
    im2col(p.geom, image, col);
    if (prep != nullptr) {
      sgemm_packed(static_cast<const Prep&>(*prep).w, false, 1.0f, col, n,
                   0.0f, out, n);
    } else {
      sgemm(false, false, m, n, k, 1.0f, weight, k, col, n, 0.0f, out, n);
    }
    add_bias(bias, m, n, out);
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din) const override {
    backward_data_prepared(p, nullptr, dout, weight, din);
  }

  std::unique_ptr<ConvPrep> prepare_backward_data(
      const ConvProblem& p, const float* weight) const override {
    const std::size_t k = p.geom.lowered_rows();
    return std::make_unique<Prep>(
        PackedA(true, k, p.geom.lowered_cols(), p.out_c, weight, k));
  }

  void backward_data_prepared(const ConvProblem& p, const ConvPrep* prep,
                              const float* dout, const float* weight,
                              float* din) const override {
    const std::size_t m = p.out_c;
    const std::size_t n = p.geom.lowered_cols();
    const std::size_t k = p.geom.lowered_rows();
    ScratchLease dcol_lease(k * n);
    float* dcol = dcol_lease.data();
    // dcol = W^T (k x m) * dout (m x n); din = col2im(dcol).
    if (prep != nullptr) {
      sgemm_packed(static_cast<const Prep&>(*prep).w, false, 1.0f, dout, n,
                   0.0f, dcol, n);
    } else {
      sgemm(true, false, k, n, m, 1.0f, weight, k, dout, n, 0.0f, dcol, n);
    }
    std::memset(din, 0,
                p.geom.in_c * p.geom.in_h * p.geom.in_w * sizeof(float));
    col2im(p.geom, dcol, din);
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight) const override {
    const std::size_t m = p.out_c;
    const std::size_t n = p.geom.lowered_cols();
    const std::size_t k = p.geom.lowered_rows();
    ScratchLease col_lease(k * n);
    float* col = col_lease.data();
    // dW += dout (m x n) * col^T (n x k); recompute col from the input
    // rather than caching it across the batch.
    im2col(p.geom, image, col);
    sgemm(false, true, m, k, n, 1.0f, dout, n, col, n, 1.0f, dweight, k);
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
               const float* bias, float* out) const override {
    winograd_conv3x3(image, p.geom.in_c, p.geom.in_h, p.geom.in_w, weight,
                     p.out_c, p.geom.pad_h, bias, out,
                     winograd_pick_tile(p.geom.out_h(), p.geom.out_w()));
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
                        const float* bias, float* out) const override {
    if (prep == nullptr) {
      forward(p, image, weight, bias, out);
      return;
    }
    const auto& wp = static_cast<const Prep&>(*prep);
    winograd_conv3x3_pre(image, p.geom.in_c, p.geom.in_h, p.geom.in_w,
                         wp.u.data(), p.out_c, p.geom.pad_h, bias, out,
                         wp.tile);
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din) const override {
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
                     winograd_pick_tile(g.in_h, g.in_w));
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
                              float* din) const override {
    if (prep == nullptr) {
      backward_data(p, dout, weight, din);
      return;
    }
    const ConvGeom& g = p.geom;
    const auto& wp = static_cast<const Prep&>(*prep);
    winograd_conv3x3_pre(dout, p.out_c, g.out_h(), g.out_w(), wp.u.data(),
                         g.in_c, 2 - g.pad_h, nullptr, din, wp.tile);
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight) const override {
    const ConvGeom& g = p.geom;
    winograd_backward_filter3x3(image, g.in_c, g.in_h, g.in_w, dout, p.out_c,
                                g.pad_h, dweight,
                                winograd_pick_tile(g.out_h(), g.out_w()));
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

// ---- sub-pixel (stride s, k = 2p + s, s | p) -------------------------------

// The s² stride-1 t x t convolutions of gemm/subpixel.hpp as one GEMM per
// phase. Every phase lowers only the low-resolution tensor (OC·t² rows)
// and moves the high-resolution one by a space-to-depth permutation, so
// a stride-2 deconvolution never materialises im2col's C·k² x (H/s·W/s)
// matrix nor scatters it back with col2im. The arithmetic equals
// im2col's; only the order of the sums differs.
class SubpixelBackend final : public ConvBackend {
 public:
  /// W2 ((s²·C) x (OC·t²)), built once per batch and shared read-only
  /// by every image.
  struct Prep final : ConvPrep {
    std::vector<float> w2;
  };

  ConvBackendKind kind() const override {
    return ConvBackendKind::kSubpixel;
  }

  bool applicable(const ConvProblem& p, ConvPhase) const override {
    return subpixel_applicable(p.geom);
  }

  std::unique_ptr<ConvPrep> prepare_forward(
      const ConvProblem& p, const float* weight) const override {
    auto prep = std::make_unique<Prep>();
    prep->w2.resize(p.out_c * p.geom.lowered_rows());
    subpixel_filters(p.geom, p.out_c, weight, prep->w2.data());
    return prep;
  }

  std::unique_ptr<ConvPrep> prepare_backward_data(
      const ConvProblem& p, const float* weight) const override {
    return prepare_forward(p, weight);
  }

  void forward(const ConvProblem& p, const float* image, const float* weight,
               const float* bias, float* out) const override {
    forward_prepared(p, nullptr, image, weight, bias, out);
  }

  void forward_prepared(const ConvProblem& p, const ConvPrep* prep,
                        const float* image, const float* weight,
                        const float* bias, float* out) const override {
    // Y = col2im_t(W2^T · S2D(X)).
    std::unique_ptr<ConvPrep> own;
    const float* w2 = filters(p, prep, weight, own);
    const ConvGeom low = subpixel_low_geom(p.geom, p.out_c);
    const std::size_t m = low.lowered_rows();  // OC·t²
    const std::size_t n = low.lowered_cols();  // (H/s)·(W/s)
    const std::size_t k = p.geom.stride_h * p.geom.stride_h * p.geom.in_c;
    ScratchLease s2d(k * n);
    space_to_depth(p.geom, image, s2d.data());
    ScratchLease col(m * n);
    sgemm(true, false, m, n, k, 1.0f, w2, m, s2d.data(), n, 0.0f, col.data(),
          n);
    std::memset(out, 0, p.out_c * n * sizeof(float));
    col2im(low, col.data(), out);
    add_bias(bias, p.out_c, n, out);
  }

  void backward_data(const ConvProblem& p, const float* dout,
                     const float* weight, float* din) const override {
    backward_data_prepared(p, nullptr, dout, weight, din);
  }

  void backward_data_prepared(const ConvProblem& p, const ConvPrep* prep,
                              const float* dout, const float* weight,
                              float* din) const override {
    // dX = D2S(W2 · im2col_t(dY)).
    std::unique_ptr<ConvPrep> own;
    const float* w2 = filters(p, prep, weight, own);
    const ConvGeom low = subpixel_low_geom(p.geom, p.out_c);
    const std::size_t m = p.geom.stride_h * p.geom.stride_h * p.geom.in_c;
    const std::size_t n = low.lowered_cols();
    const std::size_t k = low.lowered_rows();
    ScratchLease col(k * n);
    im2col(low, dout, col.data());
    ScratchLease s2d(m * n);
    sgemm(false, false, m, n, k, 1.0f, w2, k, col.data(), n, 0.0f,
          s2d.data(), n);
    depth_to_space(p.geom, s2d.data(), din);
  }

  void backward_filter(const ConvProblem& p, const float* image,
                       const float* dout, float* dweight) const override {
    // dW += scatter(S2D(X) · im2col_t(dY)^T).
    const ConvGeom low = subpixel_low_geom(p.geom, p.out_c);
    const std::size_t m = p.geom.stride_h * p.geom.stride_h * p.geom.in_c;
    const std::size_t n = low.lowered_rows();
    const std::size_t k = low.lowered_cols();
    ScratchLease s2d(m * k);
    space_to_depth(p.geom, image, s2d.data());
    ScratchLease col(n * k);
    im2col(low, dout, col.data());
    ScratchLease dw2(m * n);
    sgemm(false, true, m, n, k, 1.0f, s2d.data(), k, col.data(), k, 0.0f,
          dw2.data(), n);
    subpixel_filters_accumulate(p.geom, p.out_c, dw2.data(), dweight);
  }

  std::uint64_t flops(const ConvProblem& p, ConvPhase) const override {
    // The same multiply-adds as im2col, rearranged.
    return gemm::flops(p.out_c, p.geom.lowered_cols(),
                       p.geom.lowered_rows());
  }

 private:
  /// W2 from `prep`, or built into `own` when the caller has no prep.
  const float* filters(const ConvProblem& p, const ConvPrep* prep,
                       const float* weight,
                       std::unique_ptr<ConvPrep>& own) const {
    if (prep == nullptr) {
      own = prepare_forward(p, weight);
      prep = own.get();
    }
    return static_cast<const Prep&>(*prep).w2.data();
  }
};

}  // namespace

const ConvBackend& backend(ConvBackendKind kind) {
  static const Im2colBackend im2col_backend;
  static const WinogradBackend winograd_backend;
  static const SubpixelBackend subpixel_backend;
  switch (kind) {
    case ConvBackendKind::kIm2col:
      return im2col_backend;
    case ConvBackendKind::kWinograd:
      return winograd_backend;
    case ConvBackendKind::kSubpixel:
      return subpixel_backend;
  }
  PF15_CHECK_MSG(false, "unknown ConvBackendKind "
                            << static_cast<int>(kind));
  return im2col_backend;  // unreachable
}

const std::vector<const ConvBackend*>& all_backends() {
  static const std::vector<const ConvBackend*> table = {
      &backend(ConvBackendKind::kIm2col),
      &backend(ConvBackendKind::kWinograd),
      &backend(ConvBackendKind::kSubpixel),
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

double benchmark_backend(const ConvBackend& b, const ConvProblem& p,
                         const AutotuneOptions& opt, ConvPhase phase) {
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
  // Time what layers and compiled plans run: the prepared entry points,
  // with the weight-only prep built once, outside the timed loop.
  const std::unique_ptr<ConvPrep> prep =
      phase == ConvPhase::kForward ? b.prepare_forward(p, weight.data())
      : phase == ConvPhase::kBackwardData
          ? b.prepare_backward_data(p, weight.data())
          : nullptr;
  const auto run = [&] {
    switch (phase) {
      case ConvPhase::kForward:
        b.forward_prepared(p, prep.get(), image.data(), weight.data(),
                           bias.data(), result.data());
        break;
      case ConvPhase::kBackwardData:
        b.backward_data_prepared(p, prep.get(), dout.data(), weight.data(),
                                 result.data());
        break;
      case ConvPhase::kBackwardFilter:
        b.backward_filter(p, image.data(), dout.data(), result.data());
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
                  ConvPhase phase) {
  const ConvBackend& reference = backend(ConvBackendKind::kIm2col);
  ConvPlan plan;
  plan.tuned = true;
  plan.im2col_us = benchmark_backend(reference, p, opt, phase);
  plan.kind = ConvBackendKind::kIm2col;
  plan.best_us = plan.im2col_us;
  for (const ConvBackend* b : applicable_backends(p, phase)) {
    if (b->kind() == ConvBackendKind::kIm2col) continue;
    const double us = benchmark_backend(*b, p, opt, phase);
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
  // Every number is checked before it is converted: casting a negative,
  // fractional or out-of-range double to an integer type is undefined
  // behaviour. Integers must lie in [lo, INT_MAX].
  const auto integer = [&](const perf::Json& obj, const std::string& where,
                           const char* name, int lo) {
    const double v = obj.get(name).as_number();
    if (!(v >= lo && v <= std::numeric_limits<int>::max() &&
          v == std::floor(v))) {
      std::ostringstream why;
      why << where << "'" << name << "' must be an integer >= " << lo
          << " (got " << v << ")";
      throw reject(why.str());
    }
    return static_cast<int>(v);
  };
  const auto time_us = [&](const perf::Json& obj, const std::string& where,
                           const char* name) {
    const double v = obj.get(name).as_number();
    if (!(std::isfinite(v) && v >= 0.0)) {
      std::ostringstream why;
      why << where << "'" << name << "' must be a finite time >= 0 (got "
          << v << ")";
      throw reject(why.str());
    }
    return v;
  };
  try {
    if (doc.get("format").as_string() != kCacheFormat) {
      throw reject("not a conv plan cache file");
    }
    const int version = integer(doc, "", "version", 0);
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
      const std::string at = "plans[" + std::to_string(i) + "]: ";
      StoredPlan stored;
      ConvGeom& g = stored.problem.geom;
      // Sizes, kernels and strides are positive; only pads may be 0.
      const auto field = [&](const char* name, int lo = 1) {
        return static_cast<std::size_t>(integer(entry, at, name, lo));
      };
      g.in_c = field("in_c");
      g.in_h = field("in_h");
      g.in_w = field("in_w");
      g.kernel_h = field("kernel_h");
      g.kernel_w = field("kernel_w");
      g.stride_h = field("stride_h");
      g.stride_w = field("stride_w");
      g.pad_h = field("pad_h", 0);
      g.pad_w = field("pad_w", 0);
      stored.problem.out_c = field("out_c");
      const auto phase = parse_phase(entry.get("phase").as_string());
      if (!phase.has_value()) {
        throw reject("unknown phase '" + entry.get("phase").as_string() +
                     "'");
      }
      stored.phase = *phase;
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
      stored.plan.best_us = time_us(entry, at, "best_us");
      stored.plan.im2col_us = time_us(entry, at, "im2col_us");
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

ConvPlan ConvPlanCache::plan(const ConvProblem& p, ConvPhase phase) {
  const Key key{p, phase};
  UniqueLock lock(mutex_);
  for (;;) {
    auto ov = overrides_.find(key);
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
                  std::to_string(p.geom.kernel_h)
            : std::string(),
        "tune");
    tuned = autotune(p, opt_, phase);
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
  auto ov = overrides_.find(key);
  if (ov != overrides_.end()) return ov->second;
  return plans_.find(key)->second;
}

std::optional<ConvPlan> ConvPlanCache::lookup(const ConvProblem& p,
                                              ConvPhase phase) const {
  const Key key{p, phase};
  MutexLock lock(mutex_);
  auto ov = overrides_.find(key);
  if (ov != overrides_.end()) return ov->second;
  auto it = plans_.find(key);
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

void ConvPlanCache::insert(const ConvProblem& p, const ConvPlan& plan) {
  insert(p, ConvPhase::kForward, plan);
}

void ConvPlanCache::insert(const ConvProblem& p, ConvPhase phase,
                           const ConvPlan& plan) {
  MutexLock lock(mutex_);
  overrides_[Key{p, phase}] = plan;
}

namespace {

/// Renders a set of keyed plans as the canonical cache document.
perf::Json render_plan_doc(
    const std::map<std::pair<ConvProblem, ConvPhase>, ConvPlan>& plans) {
  perf::Json doc = perf::Json::object();
  doc.set("format", kCacheFormat);
  doc.set("version", kConvPlanCacheVersion);
  doc.set("hardware", hardware_signature());
  perf::Json entries = perf::Json::array();
  for (const auto& [key, plan] : plans) {
    const auto& [problem, phase] = key;
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
        merged[Key{s.problem, s.phase}] = s.plan;
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
    plans_.emplace(Key{s.problem, s.phase}, s.plan);
  }
}

void ConvPlanCache::load_document(const std::string& text,
                                  const std::string& origin) {
  const std::vector<StoredPlan> stored =
      parse_plan_doc(perf::Json::parse(text), origin);
  MutexLock lock(mutex_);
  for (const StoredPlan& s : stored) {
    plans_.emplace(Key{s.problem, s.phase}, s.plan);
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
