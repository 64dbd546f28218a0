#include "nn/conv2d.hpp"

#include <algorithm>

#include "common/task_scheduler.hpp"
#include "gemm/gemm.hpp"
#include "gemm/scratch.hpp"
#include "gemm/winograd.hpp"
#include "nn/elementwise.hpp"

namespace pf15::nn {

using gemm::ConvPhase;

gemm::ConvBackendKind resolve_conv_backend(ConvAlgo algo,
                                           const gemm::ConvProblem& p,
                                           ConvPhase phase) {
  switch (algo) {
    case ConvAlgo::kIm2col:
      break;
    case ConvAlgo::kWinograd:
      // Where forced Winograd declines this phase (backward-data at
      // pad > 2) it falls back to the always-applicable im2col adjoint;
      // the layers' backend query methods report the fallback, so it is
      // explicit, never silent.
      if (gemm::backend(gemm::ConvBackendKind::kWinograd)
              .applicable(p, phase)) {
        return gemm::ConvBackendKind::kWinograd;
      }
      break;
    case ConvAlgo::kAuto:
      // kAuto: every applicable backend races once per (problem, phase)
      // and the measured winner is remembered — across processes,
      // through the persisted plan cache.
      return gemm::ConvPlanCache::global().plan(p, phase).kind;
  }
  return gemm::ConvBackendKind::kIm2col;
}

gemm::ConvBackendKind planned_conv_backend(ConvAlgo algo,
                                           const gemm::ConvProblem& p,
                                           ConvPhase phase) {
  if (algo != ConvAlgo::kAuto) return resolve_conv_backend(algo, p, phase);
  const auto cached = gemm::ConvPlanCache::global().lookup(p, phase);
  return cached.has_value() ? cached->kind : gemm::ConvBackendKind::kIm2col;
}

void conv_backward_images(
    std::size_t n_img, std::size_t grad_elems, float* grad,
    const std::function<void(std::size_t img, float* partial)>& image) {
  // Taken on the calling thread, which also returns it after the wait.
  gemm::ScratchLease partials(n_img * grad_elems);
  TaskScheduler::global().parallel_for(0, n_img, [&](std::size_t img) {
    float* partial = partials.data() + img * grad_elems;
    std::fill(partial, partial + grad_elems, 0.0f);
    image(img, partial);
  });
  accumulate_image_partials(partials.data(), n_img, grad_elems, grad,
                            TaskScheduler::global());
}

Conv2d::Conv2d(std::string name, const Conv2dConfig& cfg, Rng& rng)
    : name_(std::move(name)),
      cfg_(cfg),
      weight_(Shape{cfg.out_channels, cfg.in_channels, cfg.kernel,
                    cfg.kernel}),
      bias_(Shape{cfg.out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  PF15_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0 && cfg.kernel > 0 &&
             cfg.stride > 0);
  if (cfg.algo == ConvAlgo::kWinograd) {
    PF15_CHECK_MSG(gemm::winograd_applicable(cfg.kernel, cfg.stride),
                   name_ << ": Winograd requires 3x3 stride-1");
  }
  weight_.fill_he(rng, cfg.in_channels * cfg.kernel * cfg.kernel);
  bias_.zero();
}

gemm::ConvGeom Conv2d::geom(const Shape& in) const {
  PF15_CHECK_MSG(in.rank() == 4 && in.c() == cfg_.in_channels,
                 name_ << ": bad input shape " << in);
  gemm::ConvGeom g;
  g.in_c = cfg_.in_channels;
  g.in_h = in.h();
  g.in_w = in.w();
  g.kernel_h = g.kernel_w = cfg_.kernel;
  g.stride_h = g.stride_w = cfg_.stride;
  g.pad_h = g.pad_w = cfg_.pad;
  PF15_CHECK_MSG(in.h() + 2 * cfg_.pad >= cfg_.kernel &&
                     in.w() + 2 * cfg_.pad >= cfg_.kernel,
                 name_ << ": kernel larger than padded input " << in);
  return g;
}

gemm::ConvProblem Conv2d::problem(const Shape& in) const {
  gemm::ConvProblem p;
  p.geom = geom(in);
  p.out_c = cfg_.out_channels;
  return p;
}

gemm::ConvBackendKind Conv2d::forward_backend(const Shape& in) const {
  return resolve_conv_backend(cfg_.algo, problem(in), ConvPhase::kForward);
}

gemm::ConvBackendKind Conv2d::backward_backend(const Shape& in,
                                               ConvPhase phase) const {
  PF15_CHECK(phase != ConvPhase::kForward);
  return resolve_conv_backend(cfg_.algo, problem(in), phase);
}

Shape Conv2d::output_shape(const Shape& in) const {
  const auto g = geom(in);
  return Shape{in.n(), cfg_.out_channels, g.out_h(), g.out_w()};
}

void Conv2d::forward(const Tensor& in, Tensor& out) {
  const gemm::ConvProblem p = problem(in.shape());
  ensure_shape(out, output_shape(in.shape()));
  const gemm::ConvBackendKind kind = forward_backend(in.shape());
  const gemm::ConvBackend& be = gemm::backend(kind);
  PF15_CHECK_MSG(be.applicable(p),
                 name_ << ": backend " << be.name()
                       << " not applicable to input " << in.shape());
  last_forward_backend_ = kind;

  const std::size_t n_img = in.shape().n();
  const std::size_t in_img = p.geom.in_c * p.geom.in_h * p.geom.in_w;
  const std::size_t out_img = p.out_c * p.geom.lowered_cols();
  const float* bias = cfg_.bias ? bias_.data() : nullptr;
  // Weight-only work (Winograd's filter transform) hoists out of the
  // batch loop: computed once here, shared read-only by every image.
  const std::unique_ptr<gemm::ConvPrep> prep =
      be.prepare_forward(p, weight_.data());
  // Per-image work (lowering, transforms, per-image GEMM) spreads across
  // the scheduler, one serial backend call per image.
  TaskScheduler::global().parallel_for(0, n_img, [&](std::size_t img) {
    be.forward_prepared(p, prep.get(), in.data() + img * in_img,
                        weight_.data(), bias, out.data() + img * out_img);
  });
}

void Conv2d::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  ensure_shape(din, in.shape());
  run_backward(in, dout, &din);
}

void Conv2d::backward_params(const Tensor& in, const Tensor& dout,
                             Tensor& /*unused_din*/) {
  run_backward(in, dout, nullptr);
}

void Conv2d::run_backward(const Tensor& in, const Tensor& dout,
                          Tensor* din) {
  const gemm::ConvProblem p = problem(in.shape());
  PF15_CHECK(dout.shape() == output_shape(in.shape()));

  const std::size_t n_img = in.shape().n();
  const std::size_t in_img = p.geom.in_c * p.geom.in_h * p.geom.in_w;
  const std::size_t out_img = p.out_c * p.geom.lowered_cols();

  const gemm::ConvBackend* dbe = nullptr;
  std::unique_ptr<gemm::ConvPrep> dprep;
  if (din != nullptr) {
    const gemm::ConvBackendKind dkind =
        backward_backend(in.shape(), ConvPhase::kBackwardData);
    dbe = &gemm::backend(dkind);
    last_backward_data_backend_ = dkind;
    // Weight-only work (Winograd's rotated/transformed filter bank)
    // hoists out of the batch loop, mirroring the prepare_forward hoist.
    dprep = dbe->prepare_backward_data(p, weight_.data());
  }
  const gemm::ConvBackendKind fkind =
      backward_backend(in.shape(), ConvPhase::kBackwardFilter);
  const gemm::ConvBackend& fbe = gemm::backend(fkind);
  last_backward_filter_backend_ = fkind;

  // Per image: the data gradient (the backend overwrites the din image),
  // then the filter gradient into the image's partial.
  conv_backward_images(
      n_img, weight_grad_.numel(), weight_grad_.data(),
      [&](std::size_t img, float* partial) {
        if (dbe != nullptr) {
          dbe->backward_data_prepared(p, dprep.get(),
                                      dout.data() + img * out_img,
                                      weight_.data(),
                                      din->data() + img * in_img);
        }
        fbe.backward_filter(p, in.data() + img * in_img,
                            dout.data() + img * out_img, partial);
      });
  // Bias gradient: independent per channel, so channels fan out while
  // each keeps the serial image order.
  if (cfg_.bias) {
    bias_grad_accumulate(dout.data(), n_img, p.out_c, p.geom.lowered_cols(),
                         bias_grad_.data(), TaskScheduler::global());
  }
}

std::vector<Param> Conv2d::params() {
  std::vector<Param> out;
  out.push_back({name_ + ".weight", &weight_, &weight_grad_});
  if (cfg_.bias) out.push_back({name_ + ".bias", &bias_, &bias_grad_});
  return out;
}

std::uint64_t Conv2d::forward_flops(const Shape& in) const {
  const gemm::ConvProblem p = problem(in);
  const gemm::ConvBackendKind kind =
      planned_conv_backend(cfg_.algo, p, ConvPhase::kForward);
  const gemm::ConvBackend& be = gemm::backend(kind);
  return in.n() * (be.flops(p) +
                   (cfg_.bias ? p.geom.lowered_cols() * cfg_.out_channels
                              : 0));
}

std::uint64_t Conv2d::backward_flops(const Shape& in) const {
  const gemm::ConvProblem p = problem(in);
  const gemm::ConvBackendKind dkind =
      planned_conv_backend(cfg_.algo, p, ConvPhase::kBackwardData);
  return gemm::backend(dkind).flops(p, ConvPhase::kBackwardData) * in.n() +
         filter_flops(in);
}

std::uint64_t Conv2d::backward_params_flops(const Shape& in) const {
  return filter_flops(in);
}

std::uint64_t Conv2d::filter_flops(const Shape& in) const {
  const gemm::ConvProblem p = problem(in);
  const gemm::ConvBackendKind fkind =
      planned_conv_backend(cfg_.algo, p, ConvPhase::kBackwardFilter);
  const std::uint64_t per_img =
      gemm::backend(fkind).flops(p, ConvPhase::kBackwardFilter) +
      (cfg_.bias ? p.geom.lowered_cols() * cfg_.out_channels : 0);
  return per_img * in.n();
}

}  // namespace pf15::nn
