// 2-D convolution layer, the workhorse of both networks (§III-A, §III-B).
// Weight layout is OIHW; bias is per output channel.
//
// Forward *and* backward dispatch through the gemm::ConvBackend registry:
// im2col+GEMM, Winograd F(2x2/4x4,3x3), or the sub-pixel form of
// stride-s kernels (k = 2p + s, s | p). kAuto
// consults the process-wide gemm::ConvPlanCache, which micro-benchmarks
// applicable backends the first time a (problem, phase) is seen and
// remembers the winner — forward, backward-data and backward-filter tune
// independently (the cuDNN per-op-phase model), so training inherits the
// measured backend wins, not just inference. Both passes fan their
// images across the global task scheduler; that image loop is the only
// fan-out, since every backend runs one image serially. Backward runs
// each image's data and filter gradient in one task, the filter gradient
// into a per-image partial that is added onto the weight gradient in
// image order.
#pragma once

#include <functional>
#include <string>

#include "gemm/conv_backend.hpp"
#include "gemm/im2col.hpp"
#include "nn/layer.hpp"

namespace pf15::nn {

/// Algorithm selection. kIm2col/kWinograd force one gemm::ConvBackend
/// (construction PF15_CHECKs applicability for Winograd); kAuto lets the
/// autotune plan cache pick per (geometry, phase). The sub-pixel backend
/// has no forcing value: it runs where kAuto's race or a
/// ConvPlanCache::insert override picks it. A forced backend that
/// declines a backward phase (Winograd backward-data at pad > 2) falls
/// back to the im2col adjoint there — the fallback is explicit via
/// backward_backend(), never silent.
enum class ConvAlgo { kIm2col, kWinograd, kAuto };

struct Conv2dConfig {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;
  bool bias = true;
  ConvAlgo algo = ConvAlgo::kIm2col;
};

/// The one algo-to-backend resolution policy, shared by every layer that
/// dispatches convolution phases (Conv2d, Deconv2d): a forced algo wins
/// when it supports the phase, falls back to the im2col adjoint when it
/// declines it (Winograd backward-data at pad > 2), and kAuto asks the
/// global plan cache — tuning on first sight.
gemm::ConvBackendKind resolve_conv_backend(ConvAlgo algo,
                                           const gemm::ConvProblem& p,
                                           gemm::ConvPhase phase);

/// Like resolve_conv_backend but guaranteed never to tune: kAuto
/// consults the plan cache and assumes the im2col reference for shapes
/// not yet planned. FLOP accounting goes through this so it stays a pure
/// arithmetic query.
gemm::ConvBackendKind planned_conv_backend(ConvAlgo algo,
                                           const gemm::ConvProblem& p,
                                           gemm::ConvPhase phase);

/// The image loop of Conv2d and Deconv2d backward. Runs image(img,
/// partial) for every img in [0, n_img) as tasks on the global scheduler;
/// `partial` is that image's private zeroed buffer of `grad_elems` floats
/// for its filter gradient. The partials are then added onto `grad` in
/// image order (accumulate_image_partials), so the result is
/// bit-identical for any scheduler width.
void conv_backward_images(
    std::size_t n_img, std::size_t grad_elems, float* grad,
    const std::function<void(std::size_t img, float* partial)>& image);

class Conv2d final : public Layer {
 public:
  Conv2d(std::string name, const Conv2dConfig& cfg, Rng& rng);

  const std::string& name() const override { return name_; }
  std::string kind() const override { return "conv"; }
  Shape output_shape(const Shape& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  /// The filter pass alone: the data-gradient phase is never resolved,
  /// tuned or run.
  void backward_params(const Tensor& in, const Tensor& dout,
                       Tensor& unused_din) override;
  std::vector<Param> params() override;
  std::uint64_t forward_flops(const Shape& in) const override;
  std::uint64_t backward_flops(const Shape& in) const override;
  std::uint64_t backward_params_flops(const Shape& in) const override;

  const Conv2dConfig& config() const { return cfg_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

  /// The backend the forward pass will dispatch to for this input shape
  /// (resolving kAuto through the global plan cache, tuning on first
  /// sight).
  gemm::ConvBackendKind forward_backend(const Shape& in) const;
  /// The backend `phase` will dispatch to for this input shape: the
  /// forced algo when it supports the phase, the im2col adjoint when it
  /// declines it (Winograd backward-data at pad > 2), or the plan-cache
  /// winner under kAuto.
  gemm::ConvBackendKind backward_backend(const Shape& in,
                                         gemm::ConvPhase phase) const;
  /// The backends the latest forward()/backward() actually dispatched to.
  gemm::ConvBackendKind last_forward_backend() const {
    return last_forward_backend_;
  }
  gemm::ConvBackendKind last_backward_data_backend() const {
    return last_backward_data_backend_;
  }
  gemm::ConvBackendKind last_backward_filter_backend() const {
    return last_backward_filter_backend_;
  }

 private:
  gemm::ConvGeom geom(const Shape& in) const;
  gemm::ConvProblem problem(const Shape& in) const;
  /// backward() with the data pass, or — when `din` is null — without.
  void run_backward(const Tensor& in, const Tensor& dout, Tensor* din);
  /// Filter-gradient FLOPs of one batch (+ bias), without the data pass.
  std::uint64_t filter_flops(const Shape& in) const;

  std::string name_;
  Conv2dConfig cfg_;
  Tensor weight_;       // (OC, IC, KH, KW)
  Tensor bias_;         // (OC)
  Tensor weight_grad_;  // same shapes as values
  Tensor bias_grad_;
  gemm::ConvBackendKind last_forward_backend_ =
      gemm::ConvBackendKind::kIm2col;
  gemm::ConvBackendKind last_backward_data_backend_ =
      gemm::ConvBackendKind::kIm2col;
  gemm::ConvBackendKind last_backward_filter_backend_ =
      gemm::ConvBackendKind::kIm2col;
};

}  // namespace pf15::nn
