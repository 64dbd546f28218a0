// Transposed convolution ("deconvolution") layer for the climate decoder
// (§III-B, §III-C).
//
// The paper notes that MKL had no optimized deconvolution, and that "the
// convolutions in the backward pass can be used to compute the
// deconvolutions of the forward pass and vice-versa". We implement exactly
// that swap *through the shared backend dispatch*: forward is the
// underlying convolution's backward-data phase, backward-data is the
// convolution's forward phase, and the weight gradient is the
// convolution's backward-filter phase — each resolved per (problem,
// phase) by the same gemm::ConvPlanCache the Conv2d layer uses, so the
// decoder inherits every tuned backend win instead of carrying a private
// im2col lowering. The decoder's 6x6/2 pad-2 deconvolutions also race
// the sub-pixel backend (gemm/subpixel.hpp), which lowers only the
// low-resolution side of each phase. As in Conv2d, both passes fan their
// images across the global task scheduler and every backend runs one
// image serially.
#pragma once

#include <string>

#include "gemm/conv_backend.hpp"
#include "gemm/im2col.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"

namespace pf15::nn {

struct Deconv2dConfig {
  std::size_t in_channels = 0;   // channels of the (coarse) input
  std::size_t out_channels = 0;  // channels of the upsampled output
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;
  bool bias = true;
  /// Backend selection, same semantics as Conv2d: forced kinds that
  /// decline a phase fall back to im2col; kAuto asks the plan cache.
  ConvAlgo algo = ConvAlgo::kIm2col;
};

class Deconv2d final : public Layer {
 public:
  Deconv2d(std::string name, const Deconv2dConfig& cfg, Rng& rng);

  const std::string& name() const override { return name_; }
  std::string kind() const override { return "deconv"; }
  Shape output_shape(const Shape& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  std::vector<Param> params() override;
  std::uint64_t forward_flops(const Shape& in) const override;
  std::uint64_t backward_flops(const Shape& in) const override;

  const Deconv2dConfig& config() const { return cfg_; }

  /// The backend one *convolution phase* of this layer dispatches to for
  /// this input shape. Remember the swap: the layer's forward runs
  /// kBackwardData, its backward runs kForward (data) + kBackwardFilter.
  gemm::ConvBackendKind phase_backend(const Shape& in,
                                      gemm::ConvPhase phase) const;

 private:
  /// Geometry of the *underlying convolution*, whose input is this layer's
  /// output: out_h = (in_h - 1) * stride + kernel - 2 * pad.
  gemm::ConvGeom geom(const Shape& in) const;
  gemm::ConvProblem problem(const Shape& in) const;

  std::string name_;
  Deconv2dConfig cfg_;
  Tensor weight_;  // (IC, OC, KH, KW): the underlying conv's OIHW layout
  Tensor bias_;    // (OC)
  Tensor weight_grad_;
  Tensor bias_grad_;
};

}  // namespace pf15::nn
