#include "nn/deconv2d.hpp"

#include "common/task_scheduler.hpp"
#include "gemm/gemm.hpp"
#include "gemm/winograd.hpp"
#include "nn/elementwise.hpp"

namespace pf15::nn {

using gemm::ConvPhase;

Deconv2d::Deconv2d(std::string name, const Deconv2dConfig& cfg, Rng& rng)
    : name_(std::move(name)),
      cfg_(cfg),
      weight_(Shape{cfg.in_channels, cfg.out_channels, cfg.kernel,
                    cfg.kernel}),
      bias_(Shape{cfg.out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  PF15_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0 && cfg.kernel > 0 &&
             cfg.stride > 0);
  if (cfg.algo == ConvAlgo::kWinograd) {
    // Same construction-time semantics as Conv2d: a forced backend that
    // can never run this geometry is refused loudly, not silently
    // downgraded (the per-phase im2col fallback covers declined phases,
    // not wholly inapplicable configurations).
    PF15_CHECK_MSG(gemm::winograd_applicable(cfg.kernel, cfg.stride),
                   name_ << ": Winograd requires 3x3 stride-1");
  }
  // Fan-in of the adjoint convolution: each output pixel receives
  // contributions from ~OC * (K/stride)^2 taps; use the conv-style fan-in
  // of the transposed kernel for a comparable scale.
  weight_.fill_he(rng, cfg.in_channels * cfg.kernel * cfg.kernel);
  bias_.zero();
}

gemm::ConvGeom Deconv2d::geom(const Shape& in) const {
  PF15_CHECK_MSG(in.rank() == 4 && in.c() == cfg_.in_channels,
                 name_ << ": bad input shape " << in);
  PF15_CHECK_MSG((in.h() - 1) * cfg_.stride + cfg_.kernel > 2 * cfg_.pad,
                 name_ << ": degenerate output for input " << in);
  gemm::ConvGeom g;
  g.in_c = cfg_.out_channels;  // conv "input" is the deconv output
  g.in_h = (in.h() - 1) * cfg_.stride + cfg_.kernel - 2 * cfg_.pad;
  g.in_w = (in.w() - 1) * cfg_.stride + cfg_.kernel - 2 * cfg_.pad;
  g.kernel_h = g.kernel_w = cfg_.kernel;
  g.stride_h = g.stride_w = cfg_.stride;
  g.pad_h = g.pad_w = cfg_.pad;
  // By construction the conv geometry maps back onto the deconv input.
  PF15_CHECK(g.out_h() == in.h() && g.out_w() == in.w());
  return g;
}

gemm::ConvProblem Deconv2d::problem(const Shape& in) const {
  gemm::ConvProblem p;
  p.geom = geom(in);
  p.out_c = cfg_.in_channels;  // conv output channels = deconv input
  return p;
}

gemm::ConvBackendKind Deconv2d::phase_backend(const Shape& in,
                                              ConvPhase phase) const {
  return resolve_conv_backend(cfg_.algo, problem(in), phase);
}

Shape Deconv2d::output_shape(const Shape& in) const {
  const auto g = geom(in);
  return Shape{in.n(), cfg_.out_channels, g.in_h, g.in_w};
}

void Deconv2d::forward(const Tensor& in, Tensor& out) {
  // Deconv forward == conv backward-data: the layer input plays the
  // conv's output gradient, the result is the conv's input image.
  const gemm::ConvProblem p = problem(in.shape());
  ensure_shape(out, output_shape(in.shape()));
  const gemm::ConvBackendKind kind =
      phase_backend(in.shape(), ConvPhase::kBackwardData);
  const gemm::ConvBackend& be = gemm::backend(kind);
  const std::size_t n_img = in.shape().n();
  const std::size_t in_img =
      cfg_.in_channels * in.shape().h() * in.shape().w();
  const std::size_t out_img =
      cfg_.out_channels * p.geom.in_h * p.geom.in_w;
  // Weight-only work (Winograd's rotated/transformed filter bank, the
  // sub-pixel filter matrix W2) hoists out of the batch loop.
  const std::unique_ptr<gemm::ConvPrep> prep =
      be.prepare_backward_data(p, weight_.data());
  const auto one_image = [&](std::size_t img) {
    be.backward_data_prepared(p, prep.get(), in.data() + img * in_img,
                              weight_.data(), out.data() + img * out_img);
    if (cfg_.bias) {
      float* dst = out.data() + img * out_img;
      const std::size_t plane = p.geom.in_h * p.geom.in_w;
      for (std::size_t oc = 0; oc < cfg_.out_channels; ++oc) {
        const float b = bias_.data()[oc];
        float* row = dst + oc * plane;
        for (std::size_t i = 0; i < plane; ++i) row[i] += b;
      }
    }
  };
  // Images fan across the scheduler, one serial backend call each.
  TaskScheduler::global().parallel_for(
      0, n_img, [&](std::size_t img) { one_image(img); });
}

void Deconv2d::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  const gemm::ConvProblem p = problem(in.shape());
  PF15_CHECK(dout.shape() == output_shape(in.shape()));
  ensure_shape(din, in.shape());
  const std::size_t n_img = in.shape().n();
  const std::size_t in_img =
      cfg_.in_channels * in.shape().h() * in.shape().w();
  const std::size_t out_img =
      cfg_.out_channels * p.geom.in_h * p.geom.in_w;

  // din == conv forward of the output gradient; dW == conv backward-filter
  // with the conv's (image, dout) = (deconv output gradient, deconv input).
  const gemm::ConvBackendKind dkind =
      phase_backend(in.shape(), ConvPhase::kForward);
  const gemm::ConvBackend& dbe = gemm::backend(dkind);
  const gemm::ConvBackendKind fkind =
      phase_backend(in.shape(), ConvPhase::kBackwardFilter);
  const gemm::ConvBackend& fbe = gemm::backend(fkind);
  // Weight-only work hoists out of the image loop, as in Conv2d::forward.
  const std::unique_ptr<gemm::ConvPrep> dprep =
      dbe.prepare_forward(p, weight_.data());

  conv_backward_images(
      n_img, weight_grad_.numel(), weight_grad_.data(),
      [&](std::size_t img, float* partial) {
        dbe.forward_prepared(p, dprep.get(), dout.data() + img * out_img,
                             weight_.data(), nullptr,
                             din.data() + img * in_img);
        fbe.backward_filter(p, dout.data() + img * out_img,
                            in.data() + img * in_img, partial);
      });
  // Bias gradient: channels fan out, each in serial image order.
  if (cfg_.bias) {
    bias_grad_accumulate(dout.data(), n_img, cfg_.out_channels,
                         p.geom.in_h * p.geom.in_w, bias_grad_.data(),
                         TaskScheduler::global());
  }
}

std::vector<Param> Deconv2d::params() {
  std::vector<Param> out;
  out.push_back({name_ + ".weight", &weight_, &weight_grad_});
  if (cfg_.bias) out.push_back({name_ + ".bias", &bias_, &bias_grad_});
  return out;
}

std::uint64_t Deconv2d::forward_flops(const Shape& in) const {
  const gemm::ConvProblem p = problem(in);
  const gemm::ConvBackendKind kind =
      planned_conv_backend(cfg_.algo, p, ConvPhase::kBackwardData);
  const std::uint64_t per_img =
      gemm::backend(kind).flops(p, ConvPhase::kBackwardData) +
      (cfg_.bias ? cfg_.out_channels * p.geom.in_h * p.geom.in_w : 0);
  return per_img * in.n();
}

std::uint64_t Deconv2d::backward_flops(const Shape& in) const {
  const gemm::ConvProblem p = problem(in);
  const gemm::ConvBackendKind dkind =
      planned_conv_backend(cfg_.algo, p, ConvPhase::kForward);
  const gemm::ConvBackendKind fkind =
      planned_conv_backend(cfg_.algo, p, ConvPhase::kBackwardFilter);
  const std::uint64_t per_img =
      gemm::backend(dkind).flops(p, ConvPhase::kForward) +
      gemm::backend(fkind).flops(p, ConvPhase::kBackwardFilter) +
      (cfg_.bias ? cfg_.out_channels * p.geom.in_h * p.geom.in_w : 0);
  return per_img * in.n();
}

}  // namespace pf15::nn
