// Architecture-level tests: the paper networks' shapes, parameter sizes
// (Table II), Sequential mechanics, and the composite climate model.
#include <gtest/gtest.h>

#include "check_failure.hpp"

#include <cmath>
#include <sstream>

#include "nn/climate_net.hpp"
#include "nn/hep_model.hpp"
#include "nn/losses.hpp"

namespace pf15::nn {
namespace {

TEST(HepModel, PaperSizeParameterCount) {
  // Table II: 2.3 MiB of parameters. Exact count: conv1 3*128*9+128, four
  // convs 128*128*9+128, fc 128*2+2 = 594,178 floats = 2.27 MiB.
  HepConfig cfg;
  Sequential net = build_hep_network(cfg);
  EXPECT_EQ(net.param_count(), 594178u);
  const double mib =
      static_cast<double>(net.param_bytes()) / (1024.0 * 1024.0);
  EXPECT_NEAR(mib, 2.27, 0.01);
  EXPECT_LT(std::abs(mib - 2.3), 0.1);  // the paper's rounded figure
}

TEST(HepModel, OutputIsTwoLogits) {
  HepConfig cfg = HepConfig::tiny();
  Sequential net = build_hep_network(cfg);
  EXPECT_EQ(net.output_shape(Shape{4, cfg.channels, cfg.image, cfg.image}),
            (Shape{4, 2}));
}

TEST(HepModel, PaperSizeOutputShapePipeline) {
  HepConfig cfg;
  Sequential net = build_hep_network(cfg);
  // 224 -> pool x4 -> 14 -> global avg -> 1x1 -> fc.
  EXPECT_EQ(net.output_shape(Shape{8, 3, 224, 224}), (Shape{8, 2}));
}

TEST(HepModel, ForwardBackwardRunsOnTinyConfig) {
  HepConfig cfg = HepConfig::tiny();
  Sequential net = build_hep_network(cfg);
  Rng rng(1);
  Tensor in(Shape{2, cfg.channels, cfg.image, cfg.image});
  in.fill_uniform(rng, 0.0f, 1.0f);
  const Tensor& logits = net.forward(in);
  EXPECT_TRUE(logits.all_finite());
  SoftmaxCrossEntropy loss;
  Tensor probs, dlogits;
  const double l = loss.forward_backward(logits, {0, 1}, probs, dlogits);
  EXPECT_GT(l, 0.0);
  net.backward(in, dlogits);
  for (auto& p : net.params()) {
    EXPECT_TRUE(p.grad->all_finite()) << p.name;
  }
}

TEST(HepModel, DeterministicInitAcrossBuilds) {
  HepConfig cfg = HepConfig::tiny();
  Sequential a = build_hep_network(cfg);
  Sequential b = build_hep_network(cfg);
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(max_abs_diff(*pa[i].value, *pb[i].value), 0.0f);
  }
}

TEST(HepModel, RejectsTooSmallImage) {
  HepConfig cfg;
  cfg.image = 16;  // cannot survive 4 halvings + conv
  cfg.conv_units = 5;
  PF15_EXPECT_CHECK_FAIL(build_hep_network(cfg), "too small");
}

TEST(Sequential, ParamsAreStableAcrossCalls) {
  HepConfig cfg = HepConfig::tiny();
  Sequential net = build_hep_network(cfg);
  const auto p1 = net.params();
  const auto p2 = net.params();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].value, p2[i].value);
    EXPECT_EQ(p1[i].name, p2[i].name);
  }
}

TEST(Sequential, SaveLoadRoundTrip) {
  HepConfig cfg = HepConfig::tiny();
  Sequential a = build_hep_network(cfg);
  std::stringstream ss;
  a.save_params(ss);
  HepConfig cfg2 = cfg;
  cfg2.seed = 999;  // different init
  Sequential b = build_hep_network(cfg2);
  b.load_params(ss);
  const auto pa = a.params();
  const auto pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(max_abs_diff(*pa[i].value, *pb[i].value), 0.0f);
  }
}

TEST(Sequential, ProfilesAccumulateWhenEnabled) {
  HepConfig cfg = HepConfig::tiny();
  Sequential net = build_hep_network(cfg);
  Rng rng(2);
  Tensor in(Shape{1, cfg.channels, cfg.image, cfg.image});
  in.fill_uniform(rng, 0.0f, 1.0f);
  net.forward(in, /*profile=*/true);
  for (const auto& prof : net.profiles()) {
    EXPECT_GE(prof.forward_seconds, 0.0);
  }
  // Conv layers must report nonzero FLOPs.
  bool saw_conv = false;
  for (const auto& prof : net.profiles()) {
    if (prof.kind == "conv") {
      saw_conv = true;
      EXPECT_GT(prof.forward_flops, 0u);
    }
  }
  EXPECT_TRUE(saw_conv);
}

TEST(ClimateNet, PaperScaleParameterBytes) {
  // Table II lists 302.1 MiB; our width schedule lands within ~5%.
  ClimateConfig cfg;
  ClimateNet net(cfg);
  const double mib =
      static_cast<double>(net.param_bytes()) / (1024.0 * 1024.0);
  EXPECT_GT(mib, 280.0);
  EXPECT_LT(mib, 340.0);
}

TEST(ClimateNet, GridIsImageOverTwoPowLevels) {
  ClimateConfig cfg = ClimateConfig::tiny();
  EXPECT_EQ(cfg.grid(), cfg.image >> cfg.levels());
}

TEST(ClimateNet, ForwardShapes) {
  ClimateConfig cfg = ClimateConfig::tiny();
  ClimateNet net(cfg);
  Rng rng(3);
  Tensor in(Shape{2, cfg.channels, cfg.image, cfg.image});
  in.fill_uniform(rng, -1.0f, 1.0f);
  const auto& out = net.forward(in);
  const std::size_t g = cfg.grid();
  EXPECT_EQ(out.conf.shape(), (Shape{2, 1, g, g}));
  EXPECT_EQ(out.cls.shape(), (Shape{2, cfg.classes, g, g}));
  EXPECT_EQ(out.xy.shape(), (Shape{2, 2, g, g}));
  EXPECT_EQ(out.wh.shape(), (Shape{2, 2, g, g}));
  EXPECT_EQ(out.recon.shape(), in.shape());
}

TEST(ClimateNet, BackwardProducesFiniteGrads) {
  ClimateConfig cfg = ClimateConfig::tiny();
  ClimateNet net(cfg);
  Rng rng(4);
  Tensor in(Shape{2, cfg.channels, cfg.image, cfg.image});
  in.fill_uniform(rng, -1.0f, 1.0f);
  const auto& out = net.forward(in);

  std::vector<ClimateTarget> targets(2);
  nn::Box box;
  box.x = 0.25f;
  box.y = 0.25f;
  box.w = 0.2f;
  box.h = 0.2f;
  box.cls = 1;
  targets[0].boxes.push_back(box);
  targets[1].labeled = false;

  ClimateLoss loss;
  ClimateNet::OutputGrads grads;
  const auto parts = loss.compute(out, in, targets, grads);
  EXPECT_GT(parts.total(), 0.0);
  net.backward(in, grads);
  for (auto& p : net.params()) {
    EXPECT_TRUE(p.grad->all_finite()) << p.name;
  }
}

TEST(ClimateNet, EncoderSharedByHeadsAndDecoder) {
  // Unlabeled-only loss (reconstruction) must still produce encoder
  // gradients: that is the semi-supervised coupling.
  ClimateConfig cfg = ClimateConfig::tiny();
  ClimateNet net(cfg);
  Rng rng(5);
  Tensor in(Shape{1, cfg.channels, cfg.image, cfg.image});
  in.fill_uniform(rng, -1.0f, 1.0f);
  const auto& out = net.forward(in);
  std::vector<ClimateTarget> targets(1);
  targets[0].labeled = false;
  ClimateLoss loss;
  ClimateNet::OutputGrads grads;
  loss.compute(out, in, targets, grads);
  net.backward(in, grads);
  double encoder_grad_norm = 0.0;
  for (auto& p : net.encoder().params()) {
    encoder_grad_norm += p.grad->sumsq();
  }
  EXPECT_GT(encoder_grad_norm, 0.0);
}

TEST(ClimateNet, ParamCountsSplitAcrossParts) {
  ClimateConfig cfg = ClimateConfig::tiny();
  ClimateNet net(cfg);
  std::size_t total = 0;
  for (auto& p : net.params()) total += p.value->numel();
  EXPECT_EQ(total, net.param_count());
  EXPECT_GT(net.encoder().param_count(), 0u);
  EXPECT_GT(net.decoder().param_count(), 0u);
}

TEST(ClimateNet, TableIILayerCounts) {
  // Table II: 9 conv (5 encoder + 4 heads) and 5 deconv layers at paper
  // scale.
  ClimateConfig cfg;
  ClimateNet net(cfg);
  std::size_t convs = 0, deconvs = 0;
  for (const auto& prof : net.profiles()) {
    if (prof.kind == "conv") ++convs;
    if (prof.kind == "deconv") ++deconvs;
  }
  EXPECT_EQ(convs, 9u);
  EXPECT_EQ(deconvs, 5u);
}

TEST(ClimateNet, SaveLoadRoundTrip) {
  ClimateConfig cfg = ClimateConfig::tiny();
  ClimateNet a(cfg);
  std::stringstream ss;
  a.save_params(ss);
  ClimateConfig cfg2 = cfg;
  cfg2.seed = 777;
  ClimateNet b(cfg2);
  b.load_params(ss);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(max_abs_diff(*pa[i].value, *pb[i].value), 0.0f);
  }
}

// ---- kAuto dispatch vs the forced-im2col baseline --------------------------
// The paper models default to kAuto (ROADMAP: warm plan cache shipped with
// checkpoints). Autotuned dispatch may route any geometry/phase to any
// applicable backend, so these tests pin the contract: the math agrees
// with the im2col reference within fp tolerance, training and serving
// alike.

TEST(HepModel, AutoDispatchAgreesWithIm2colBaselineForwardAndBackward) {
  HepConfig auto_cfg = HepConfig::tiny();
  ASSERT_EQ(auto_cfg.algo, ConvAlgo::kAuto);  // the paper-model default
  HepConfig ref_cfg = auto_cfg;
  ref_cfg.algo = ConvAlgo::kIm2col;
  Sequential auto_net = build_hep_network(auto_cfg);
  Sequential ref_net = build_hep_network(ref_cfg);  // same seed, same init

  Rng rng(91);
  Tensor input(Shape{4, 3, 32, 32});
  input.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor logits_auto = auto_net.forward(input).clone();
  const Tensor& logits_ref = ref_net.forward(input);
  ASSERT_EQ(logits_auto.shape(), logits_ref.shape());
  for (std::size_t i = 0; i < logits_auto.numel(); ++i) {
    const double want = logits_ref.at(i);
    EXPECT_NEAR(logits_auto.at(i), want, 1e-4 * (1.0 + std::abs(want)));
  }

  // One training step: the per-phase backward dispatch must produce the
  // same parameter gradients the im2col adjoint does (fp tolerance; the
  // Winograd and sub-pixel gradients carry their own gradcheck coverage).
  Tensor dout(logits_ref.shape());
  dout.fill_uniform(rng, -1.0f, 1.0f);
  auto_net.zero_grad();
  ref_net.zero_grad();
  auto_net.backward(input, dout);
  ref_net.backward(input, dout);
  auto ga = auto_net.params();
  auto gr = ref_net.params();
  ASSERT_EQ(ga.size(), gr.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    for (std::size_t j = 0; j < ga[i].grad->numel(); ++j) {
      const double want = gr[i].grad->at(j);
      EXPECT_NEAR(ga[i].grad->at(j), want, 2e-3 * (1.0 + std::abs(want)))
          << ga[i].name << "[" << j << "]";
    }
  }
}

TEST(ClimateNet, AutoDispatchAgreesWithIm2colBaselineForward) {
  ClimateConfig auto_cfg = ClimateConfig::tiny();
  ASSERT_EQ(auto_cfg.algo, ConvAlgo::kAuto);
  ClimateConfig ref_cfg = auto_cfg;
  ref_cfg.algo = ConvAlgo::kIm2col;
  ClimateNet auto_net(auto_cfg);
  ClimateNet ref_net(ref_cfg);

  Rng rng(92);
  Tensor input(Shape{2, auto_cfg.channels, auto_cfg.image, auto_cfg.image});
  input.fill_uniform(rng, -1.0f, 1.0f);
  const auto& out_auto = auto_net.forward(input);
  const auto& out_ref = ref_net.forward(input);
  const auto check = [](const Tensor& a, const Tensor& b) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.numel(); ++i) {
      const double want = b.at(i);
      EXPECT_NEAR(a.at(i), want, 1e-4 * (1.0 + std::abs(want)));
    }
  };
  check(out_auto.conf, out_ref.conf);
  check(out_auto.cls, out_ref.cls);
  check(out_auto.xy, out_ref.xy);
  check(out_auto.wh, out_ref.wh);
  check(out_auto.recon, out_ref.recon);
}

}  // namespace
}  // namespace pf15::nn
