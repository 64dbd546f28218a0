#include "nn/climate_net.hpp"

#include <cmath>

#include "nn/activations.hpp"
#include "nn/losses.hpp"

namespace pf15::nn {

namespace {
/// sigmoid as a free function; heads emit logits, the loss and the decoder
/// of predictions squash them.
inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

Sequential make_head(const std::string& name, std::size_t in_c,
                     std::size_t out_c, std::size_t kernel, ConvAlgo algo,
                     Rng& rng) {
  PF15_CHECK(kernel % 2 == 1);
  Conv2dConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  cfg.kernel = kernel;
  cfg.stride = 1;
  cfg.pad = kernel / 2;
  cfg.algo = algo;
  Sequential head;
  head.add(std::make_unique<Conv2d>(name, cfg, rng));
  return head;
}
}  // namespace

ClimateNet::ClimateNet(const ClimateConfig& cfg) : cfg_(cfg) {
  PF15_CHECK(!cfg.widths.empty());
  PF15_CHECK_MSG(cfg.image % (1ull << cfg.levels()) == 0,
                 "image size must be divisible by 2^levels");
  PF15_CHECK_MSG(cfg.enc_kernel % 2 == 1, "encoder kernel must be odd");
  PF15_CHECK_MSG(cfg.dec_kernel % 2 == 0, "decoder kernel must be even for "
                                          "exact stride-2 upsampling");
  Rng rng(cfg.seed);

  // Encoder: strided convs halving the resolution at each level (§III-B
  // "a series of strided convolutions to learn coarse, downsampled
  // features").
  std::size_t in_c = cfg.channels;
  for (std::size_t level = 0; level < cfg.levels(); ++level) {
    Conv2dConfig conv;
    conv.in_channels = in_c;
    conv.out_channels = cfg.widths[level];
    conv.kernel = cfg.enc_kernel;
    conv.stride = 2;
    conv.pad = (cfg.enc_kernel - 1) / 2;
    conv.algo = cfg.algo;
    const std::string idx = std::to_string(level + 1);
    encoder_.add(std::make_unique<Conv2d>("enc_conv" + idx, conv, rng));
    encoder_.add(std::make_unique<ReLU>("enc_relu" + idx));
    in_c = cfg.widths[level];
  }
  const std::size_t feat_c = cfg.widths.back();

  // Four per-score heads.
  conf_head_ =
      make_head("head_conf", feat_c, 1, cfg.head_kernel, cfg.algo, rng);
  cls_head_ = make_head("head_class", feat_c, cfg.classes, cfg.head_kernel,
                        cfg.algo, rng);
  xy_head_ = make_head("head_xy", feat_c, 2, cfg.head_kernel, cfg.algo, rng);
  wh_head_ = make_head("head_wh", feat_c, 2, cfg.head_kernel, cfg.algo, rng);

  // Decoder: mirror of the encoder with stride-2 deconvolutions back to
  // the input resolution; final layer is linear (reconstruction).
  std::size_t dec_in = feat_c;
  for (std::size_t level = cfg.levels(); level-- > 0;) {
    const std::size_t out_c =
        (level == 0) ? cfg.channels : cfg.widths[level - 1];
    Deconv2dConfig dc;
    dc.in_channels = dec_in;
    dc.out_channels = out_c;
    dc.kernel = cfg.dec_kernel;
    dc.stride = 2;
    dc.pad = (cfg.dec_kernel - 2) / 2;
    dc.algo = cfg.algo;
    const std::string idx = std::to_string(cfg.levels() - level);
    decoder_.add(std::make_unique<Deconv2d>("dec_deconv" + idx, dc, rng));
    if (level != 0) {
      decoder_.add(std::make_unique<ReLU>("dec_relu" + idx));
    }
    dec_in = out_c;
  }
}

const ClimateNet::Outputs& ClimateNet::forward(const Tensor& input,
                                               bool profile) {
  PF15_CHECK_MSG(input.shape().rank() == 4 &&
                     input.shape().c() == cfg_.channels &&
                     input.shape().h() == cfg_.image &&
                     input.shape().w() == cfg_.image,
                 "climate input shape " << input.shape());
  const Tensor& feats = encoder_.forward(input, profile);
  ensure_shape(features_, feats.shape());
  features_.copy_from(feats);

  outputs_.conf.copy_or_assign_from(conf_head_.forward(features_, profile));
  outputs_.cls.copy_or_assign_from(cls_head_.forward(features_, profile));
  outputs_.xy.copy_or_assign_from(xy_head_.forward(features_, profile));
  outputs_.wh.copy_or_assign_from(wh_head_.forward(features_, profile));
  outputs_.recon.copy_or_assign_from(decoder_.forward(features_, profile));
  return outputs_;
}

void ClimateNet::backward(const Tensor& input, const OutputGrads& grads,
                          bool profile) {
  ensure_shape(dfeatures_, features_.shape());
  dfeatures_.zero();
  dfeatures_.axpy(1.0f, conf_head_.backward(features_, grads.conf, profile));
  dfeatures_.axpy(1.0f, cls_head_.backward(features_, grads.cls, profile));
  dfeatures_.axpy(1.0f, xy_head_.backward(features_, grads.xy, profile));
  dfeatures_.axpy(1.0f, wh_head_.backward(features_, grads.wh, profile));
  dfeatures_.axpy(1.0f,
                  decoder_.backward(features_, grads.recon, profile));
  encoder_.backward_params(input, dfeatures_, profile);
}

std::vector<Param> ClimateNet::params() {
  std::vector<Param> all;
  for (Sequential* part : {&encoder_, &conf_head_, &cls_head_, &xy_head_,
                           &wh_head_, &decoder_}) {
    for (auto& p : part->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param> ClimateNet::state() {
  std::vector<Param> all;
  for (Sequential* part : {&encoder_, &conf_head_, &cls_head_, &xy_head_,
                           &wh_head_, &decoder_}) {
    for (auto& p : part->state()) all.push_back(p);
  }
  return all;
}

std::vector<Param> ClimateNet::params_and_state() {
  std::vector<Param> all = params();
  for (auto& p : state()) all.push_back(p);
  return all;
}

std::size_t ClimateNet::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->numel();
  return n;
}

void ClimateNet::set_training(bool training) {
  for (Sequential* part : {&encoder_, &conf_head_, &cls_head_, &xy_head_,
                           &wh_head_, &decoder_}) {
    part->set_training(training);
  }
}

void ClimateNet::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

std::uint64_t ClimateNet::forward_flops(const Shape& in) const {
  const Shape feat{in.n(), cfg_.widths.back(), cfg_.grid(), cfg_.grid()};
  return encoder_.forward_flops(in) + conf_head_.forward_flops(feat) +
         cls_head_.forward_flops(feat) + xy_head_.forward_flops(feat) +
         wh_head_.forward_flops(feat) + decoder_.forward_flops(feat);
}

std::uint64_t ClimateNet::backward_flops(const Shape& in) const {
  const Shape feat{in.n(), cfg_.widths.back(), cfg_.grid(), cfg_.grid()};
  return encoder_.backward_flops(in) + conf_head_.backward_flops(feat) +
         cls_head_.backward_flops(feat) + xy_head_.backward_flops(feat) +
         wh_head_.backward_flops(feat) + decoder_.backward_flops(feat);
}

std::vector<LayerProfile> ClimateNet::profiles() const {
  std::vector<LayerProfile> all;
  for (const Sequential* part : {&encoder_, &conf_head_, &cls_head_,
                                 &xy_head_, &wh_head_, &decoder_}) {
    for (const auto& p : part->profiles()) all.push_back(p);
  }
  return all;
}

void ClimateNet::save_params(std::ostream& os) {
  save_named_tensors(os, params_and_state());
}

void ClimateNet::load_params(std::istream& is) {
  load_named_tensors(is, params_and_state());
}

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

ClimateLoss::Parts ClimateLoss::compute(
    const ClimateNet::Outputs& out, const Tensor& input,
    const std::vector<ClimateTarget>& targets,
    ClimateNet::OutputGrads& grads) const {
  const Shape& cs = out.conf.shape();
  const std::size_t batch = cs.n();
  const std::size_t grid = cs.h();
  PF15_CHECK(cs.w() == grid && cs.c() == 1);
  PF15_CHECK_MSG(targets.size() == batch, "targets/batch mismatch");
  const std::size_t classes = out.cls.shape().c();

  ensure_shape(grads.conf, out.conf.shape());
  ensure_shape(grads.cls, out.cls.shape());
  ensure_shape(grads.xy, out.xy.shape());
  ensure_shape(grads.wh, out.wh.shape());
  grads.conf.zero();
  grads.cls.zero();
  grads.xy.zero();
  grads.wh.zero();

  Parts parts;
  const std::size_t cells = grid * grid;
  const float inv_batch_cells = 1.0f / static_cast<float>(batch * cells);

  std::size_t total_boxes = 0;
  for (const auto& t : targets) {
    if (t.labeled) total_boxes += t.boxes.size();
  }
  const float inv_boxes =
      total_boxes > 0 ? 1.0f / static_cast<float>(total_boxes) : 0.0f;

  // Per-image cell assignment: the cell containing the box's bottom-left
  // corner is responsible for it (first box wins on collision).
  std::vector<int> cell_box(cells);
  for (std::size_t b = 0; b < batch; ++b) {
    if (!targets[b].labeled) continue;  // unlabeled: reconstruction only
    const auto& boxes = targets[b].boxes;
    std::fill(cell_box.begin(), cell_box.end(), -1);
    for (std::size_t k = 0; k < boxes.size(); ++k) {
      const auto gx = static_cast<std::size_t>(std::min(
          static_cast<float>(grid) - 1.0f,
          std::max(0.0f, boxes[k].x * static_cast<float>(grid))));
      const auto gy = static_cast<std::size_t>(std::min(
          static_cast<float>(grid) - 1.0f,
          std::max(0.0f, boxes[k].y * static_cast<float>(grid))));
      if (cell_box[gy * grid + gx] < 0) {
        cell_box[gy * grid + gx] = static_cast<int>(k);
      }
    }

    const float* conf_map = out.conf.data() + b * cells;
    float* dconf = grads.conf.data() + b * cells;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const float p = sigmoidf(conf_map[cell]);
      const int k = cell_box[cell];
      if (k < 0) {
        // No object: push confidence down.
        parts.noobj += cfg_.lambda_noobj * p * p * inv_batch_cells;
        dconf[cell] = 2.0f * cfg_.lambda_noobj * p * p * (1.0f - p) *
                      inv_batch_cells;
        continue;
      }
      // Object cell: confidence toward 1.
      const float e = p - 1.0f;
      parts.obj += cfg_.lambda_obj * e * e * inv_batch_cells;
      dconf[cell] =
          2.0f * cfg_.lambda_obj * e * p * (1.0f - p) * inv_batch_cells;

      const Box& gt = boxes[static_cast<std::size_t>(k)];
      const std::size_t gy = cell / grid;
      const std::size_t gx = cell % grid;

      // Class: softmax cross-entropy at this cell.
      {
        const float* cls_base = out.cls.data() + (b * classes) * cells;
        float m = cls_base[cell];
        for (std::size_t c = 1; c < classes; ++c) {
          m = std::max(m, cls_base[c * cells + cell]);
        }
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
          denom += std::exp(cls_base[c * cells + cell] - m);
        }
        float* dcls_base = grads.cls.data() + (b * classes) * cells;
        for (std::size_t c = 0; c < classes; ++c) {
          const float prob = static_cast<float>(
              std::exp(cls_base[c * cells + cell] - m) / denom);
          const float target =
              (static_cast<int>(c) == gt.cls) ? 1.0f : 0.0f;
          dcls_base[c * cells + cell] =
              cfg_.lambda_class * (prob - target) * inv_boxes;
          if (target > 0.0f) {
            parts.cls -= cfg_.lambda_class *
                         std::log(std::max(1e-12, (double)prob)) * inv_boxes;
          }
        }
      }

      // Geometry: corner offset within the cell (sigmoid), sqrt-scaled
      // width/height (sigmoid), all MSE — the "minimize the scale and
      // location offset" term.
      {
        const float ox = gt.x * static_cast<float>(grid) -
                         static_cast<float>(gx);
        const float oy = gt.y * static_cast<float>(grid) -
                         static_cast<float>(gy);
        const float sw = std::sqrt(std::max(0.0f, gt.w));
        const float sh = std::sqrt(std::max(0.0f, gt.h));
        const float targets4[4] = {ox, oy, sw, sh};
        const Tensor* maps[2] = {&out.xy, &out.wh};
        Tensor* gmaps[2] = {&grads.xy, &grads.wh};
        for (int m2 = 0; m2 < 2; ++m2) {
          for (int c = 0; c < 2; ++c) {
            const std::size_t off = ((b * 2) + c) * cells + cell;
            const float pred = sigmoidf(maps[m2]->data()[off]);
            const float tgt = targets4[m2 * 2 + c];
            const float err = pred - tgt;
            parts.geom += cfg_.lambda_geom * err * err * inv_boxes;
            gmaps[m2]->data()[off] = 2.0f * cfg_.lambda_geom * err * pred *
                                     (1.0f - pred) * inv_boxes;
          }
        }
      }
    }
  }

  // Reconstruction applies to every image, labeled or not (§III-B: the
  // unlabeled stream trains the autoencoder branch).
  parts.recon = mse_loss(out.recon, input, cfg_.lambda_recon, grads.recon);
  return parts;
}

std::vector<std::vector<Box>> decode_boxes(const ClimateNet::Outputs& out,
                                           float threshold) {
  const Shape& cs = out.conf.shape();
  const std::size_t batch = cs.n();
  const std::size_t grid = cs.h();
  const std::size_t cells = grid * grid;
  const std::size_t classes = out.cls.shape().c();
  std::vector<std::vector<Box>> result(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* conf_map = out.conf.data() + b * cells;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const float p = sigmoidf(conf_map[cell]);
      if (p <= threshold) continue;
      const std::size_t gy = cell / grid;
      const std::size_t gx = cell % grid;
      Box box;
      box.confidence = p;
      box.x = (static_cast<float>(gx) +
               sigmoidf(out.xy.data()[((b * 2) + 0) * cells + cell])) /
              static_cast<float>(grid);
      box.y = (static_cast<float>(gy) +
               sigmoidf(out.xy.data()[((b * 2) + 1) * cells + cell])) /
              static_cast<float>(grid);
      const float sw = sigmoidf(out.wh.data()[((b * 2) + 0) * cells + cell]);
      const float sh = sigmoidf(out.wh.data()[((b * 2) + 1) * cells + cell]);
      box.w = sw * sw;
      box.h = sh * sh;
      int best_cls = 0;
      float best_val = out.cls.data()[(b * classes) * cells + cell];
      for (std::size_t c = 1; c < classes; ++c) {
        const float v = out.cls.data()[((b * classes) + c) * cells + cell];
        if (v > best_val) {
          best_val = v;
          best_cls = static_cast<int>(c);
        }
      }
      box.cls = best_cls;
      result[b].push_back(box);
    }
  }
  return result;
}

}  // namespace pf15::nn
