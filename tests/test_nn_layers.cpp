// Per-layer unit tests: shape inference, forward semantics on hand-built
// inputs, and central-difference gradient checks for every layer type.
#include <gtest/gtest.h>

#include "check_failure.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/task_scheduler.hpp"
#include "gemm/gemm.hpp"
#include "gradient_check.hpp"
#include "pinned_plans.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/deconv2d.hpp"
#include "nn/dense.hpp"
#include "nn/elementwise.hpp"
#include "nn/pool.hpp"

namespace pf15::nn {
namespace {

using testing::check_layer_gradients;

Tensor random_input(const Shape& s, std::uint64_t seed = 77) {
  Rng rng(seed);
  Tensor t(s);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

// ---------------------------------------------------------------- Conv2d
TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2d conv("c", {3, 8, 3, 1, 1, true}, rng);
  EXPECT_EQ(conv.output_shape(Shape{2, 3, 16, 16}), (Shape{2, 8, 16, 16}));
}

TEST(Conv2d, OutputShapeStride2) {
  Rng rng(1);
  Conv2d conv("c", {16, 32, 5, 2, 2, true}, rng);
  EXPECT_EQ(conv.output_shape(Shape{1, 16, 64, 64}), (Shape{1, 32, 32, 32}));
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2d conv("c", {3, 8, 3, 1, 1, true}, rng);
  PF15_EXPECT_CHECK_FAIL(conv.output_shape(Shape{1, 4, 8, 8}), "bad input");
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2dConfig cfg{1, 1, 1, 1, 0, false};
  Conv2d conv("c", cfg, rng);
  conv.weight().fill(1.0f);
  Tensor in = random_input(Shape{1, 1, 4, 4});
  Tensor out;
  conv.forward(in, out);
  EXPECT_FLOAT_EQ(max_abs_diff(in, out), 0.0f);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(1);
  Conv2dConfig cfg{1, 2, 1, 1, 0, true};
  Conv2d conv("c", cfg, rng);
  conv.weight().zero();
  conv.bias().at(0) = 1.5f;
  conv.bias().at(1) = -2.5f;
  Tensor in = random_input(Shape{1, 1, 3, 3});
  Tensor out;
  conv.forward(in, out);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(out.at(i), 1.5f);
    EXPECT_FLOAT_EQ(out.at(9 + i), -2.5f);
  }
}

TEST(Conv2d, GradientCheck) {
  Rng rng(2);
  Conv2d conv("c", {2, 3, 3, 1, 1, true}, rng);
  Tensor in = random_input(Shape{2, 2, 5, 5});
  check_layer_gradients(conv, in);
}

TEST(Conv2d, GradientCheckStridedNoBias) {
  Rng rng(2);
  Conv2d conv("c", {3, 4, 3, 2, 1, false}, rng);
  Tensor in = random_input(Shape{1, 3, 7, 7});
  check_layer_gradients(conv, in);
}

TEST(Conv2d, GradientsAccumulateAcrossCalls) {
  Rng rng(2);
  Conv2d conv("c", {1, 1, 3, 1, 1, true}, rng);
  Tensor in = random_input(Shape{1, 1, 4, 4});
  Tensor out, dout(conv.output_shape(in.shape())), din;
  dout.fill(1.0f);
  conv.forward(in, out);
  conv.backward(in, dout, din);
  const Tensor g1 = conv.params()[0].grad->clone();
  conv.backward(in, dout, din);
  const Tensor g2 = conv.params()[0].grad->clone();
  for (std::size_t i = 0; i < g1.numel(); ++i) {
    EXPECT_NEAR(g2.at(i), 2.0f * g1.at(i), 1e-4f);
  }
}

TEST(Conv2d, FlopCountMatchesInstrumentedGemm) {
  Rng rng(2);
  Conv2d conv("c", {4, 8, 3, 1, 1, false}, rng);
  Tensor in = random_input(Shape{2, 4, 10, 10});
  Tensor out;
  gemm::reset_executed_flops();
  conv.forward(in, out);
  // Analytic forward FLOPs (bias off => pure GEMM work).
  EXPECT_EQ(gemm::executed_flops(), conv.forward_flops(in.shape()));
}

// -------------------------------------------------------------- Deconv2d
TEST(Deconv2d, OutputShapeDoubles) {
  Rng rng(3);
  Deconv2d dc("d", {8, 4, 6, 2, 2, true}, rng);
  EXPECT_EQ(dc.output_shape(Shape{1, 8, 12, 12}), (Shape{1, 4, 24, 24}));
}

TEST(Deconv2d, InvertsConvGeometry) {
  // A stride-2 conv halves 32 -> 16; the mirror deconv must map 16 -> 32.
  Rng rng(3);
  Conv2d conv("c", {4, 8, 5, 2, 2, true}, rng);
  Deconv2d deconv("d", {8, 4, 6, 2, 2, true}, rng);
  const Shape conv_out = conv.output_shape(Shape{1, 4, 32, 32});
  EXPECT_EQ(deconv.output_shape(conv_out), (Shape{1, 4, 32, 32}));
}

TEST(Deconv2d, GradientCheck) {
  Rng rng(4);
  Deconv2d dc("d", {3, 2, 4, 2, 1, true}, rng);
  Tensor in = random_input(Shape{2, 3, 4, 4});
  check_layer_gradients(dc, in);
}

TEST(Deconv2d, GradientCheckStride1) {
  Rng rng(4);
  Deconv2d dc("d", {2, 3, 3, 1, 1, false}, rng);
  Tensor in = random_input(Shape{1, 2, 5, 5});
  check_layer_gradients(dc, in);
}

TEST(Deconv2d, MatchesConvTransposeByBruteForce) {
  // Deconv forward must equal the adjoint of conv forward with the same
  // (transposed) kernel: <conv(x), y> == <x, deconv(y)> when deconv's
  // weight (IC,OC,KH,KW) mirrors conv's (OC,IC,KH,KW).
  Rng rng(5);
  const std::size_t ic = 2, oc = 3, k = 3, s = 2, p = 1;
  Conv2d conv("c", {ic, oc, k, s, p, false}, rng);
  Deconv2d deconv("d", {oc, ic, k, s, p, false}, rng);
  // Copy conv weight (oc, ic, kh, kw) into deconv weight (oc, ic, kh, kw):
  // deconv stores (in=oc, out=ic, kh, kw) — identical layout here.
  for (std::size_t i = 0; i < conv.weight().numel(); ++i) {
    deconv.params()[0].value->data()[i] = conv.weight().data()[i];
  }
  Tensor x = random_input(Shape{1, ic, 9, 9}, 8);
  Tensor conv_out;
  conv.forward(x, conv_out);
  Tensor y = random_input(conv_out.shape(), 9);
  Tensor deconv_out;
  deconv.forward(y, deconv_out);
  ASSERT_EQ(deconv_out.shape(), x.shape());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < conv_out.numel(); ++i) {
    lhs += static_cast<double>(conv_out.at(i)) * y.at(i);
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.at(i)) * deconv_out.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

// ------------------------------------------------------------------ Pool
TEST(MaxPool2d, SelectsMaxima) {
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) in.at(i) = static_cast<float>(i);
  Tensor out;
  pool.forward(in, out);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(2), 13.0f);
  EXPECT_FLOAT_EQ(out.at(3), 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 1, 2, 2});
  in.at(3) = 5.0f;  // max at the last position
  Tensor out, din;
  pool.forward(in, out);
  Tensor dout(out.shape());
  dout.fill(2.0f);
  pool.backward(in, dout, din);
  EXPECT_FLOAT_EQ(din.at(0), 0.0f);
  EXPECT_FLOAT_EQ(din.at(3), 2.0f);
}

TEST(MaxPool2d, GradientCheck) {
  // Use distinct input values so argmax is stable under the probe eps.
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 2, 4, 4});
  Rng rng(10);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    in.at(i) = static_cast<float>(i) * 0.37f +
               static_cast<float>(rng.uniform()) * 0.01f;
  }
  check_layer_gradients(pool, in);
}

TEST(GlobalAvgPool, AveragesPlanes) {
  GlobalAvgPool gap("g");
  Tensor in(Shape{1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) in.at(i) = 4.0f;  // channel 0
  for (std::size_t i = 4; i < 8; ++i) {
    in.at(i) = static_cast<float>(i - 4);  // channel 1: 0..3
  }
  Tensor out;
  gap.forward(in, out);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(1), 1.5f);
}

TEST(GlobalAvgPool, GradientCheck) {
  GlobalAvgPool gap("g");
  Tensor in = random_input(Shape{2, 3, 4, 4});
  check_layer_gradients(gap, in);
}

// ----------------------------------------------------------- Activations
TEST(ReLU, ClampsNegatives) {
  ReLU relu("r");
  Tensor in(Shape{4});
  in.at(0) = -1.0f;
  in.at(1) = 2.0f;
  in.at(2) = 0.0f;
  in.at(3) = -0.5f;
  Tensor out;
  relu.forward(in, out);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1), 2.0f);
  EXPECT_FLOAT_EQ(out.at(2), 0.0f);
  EXPECT_FLOAT_EQ(out.at(3), 0.0f);
}

TEST(ReLU, GradientCheck) {
  ReLU relu("r");
  // Keep values away from the kink at 0.
  Tensor in(Shape{3, 7});
  Rng rng(12);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    float v = rng.uniform(0.2f, 1.0f);
    if (rng.bernoulli(0.5)) v = -v;
    in.at(i) = v;
  }
  check_layer_gradients(relu, in);
}

TEST(Sigmoid, KnownValues) {
  Sigmoid s("s");
  Tensor in(Shape{2});
  in.at(0) = 0.0f;
  in.at(1) = 100.0f;
  Tensor out;
  s.forward(in, out);
  EXPECT_FLOAT_EQ(out.at(0), 0.5f);
  EXPECT_NEAR(out.at(1), 1.0f, 1e-6f);
}

TEST(Sigmoid, GradientCheck) {
  Sigmoid s("s");
  Tensor in = random_input(Shape{4, 5});
  check_layer_gradients(s, in);
}

TEST(Tanh, GradientCheck) {
  Tanh t("t");
  Tensor in = random_input(Shape{4, 5});
  check_layer_gradients(t, in);
}

// ----------------------------------------------------------------- Dense
TEST(Dense, OutputShapeFlattens4d) {
  Rng rng(13);
  Dense fc("f", 2 * 3 * 3, 5, rng);
  EXPECT_EQ(fc.output_shape(Shape{4, 2, 3, 3}), (Shape{4, 5}));
}

TEST(Dense, RejectsWrongFeatureCount) {
  Rng rng(13);
  Dense fc("f", 10, 5, rng);
  PF15_EXPECT_CHECK_FAIL(fc.output_shape(Shape{2, 11}), "not flattenable");
}

TEST(Dense, LinearityInInput) {
  Rng rng(13);
  Dense fc("f", 6, 4, rng);
  Tensor a = random_input(Shape{2, 6}, 1);
  Tensor a2 = a.clone();
  a2.scale(2.0f);
  Tensor out1, out2;
  fc.forward(a, out1);
  fc.forward(a2, out2);
  // out2 - bias = 2 * (out1 - bias)  =>  out2 = 2*out1 - bias.
  std::vector<float> bias(4);
  for (std::size_t j = 0; j < 4; ++j) {
    bias[j] = fc.params()[1].value->at(j);
  }
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(out2.at(b * 4 + j), 2.0f * out1.at(b * 4 + j) - bias[j],
                  1e-4f);
    }
  }
}

TEST(Dense, GradientCheck) {
  Rng rng(14);
  Dense fc("f", 8, 3, rng);
  Tensor in = random_input(Shape{4, 8});
  check_layer_gradients(fc, in);
}

TEST(Dense, GradientCheck4dInput) {
  Rng rng(14);
  Dense fc("f", 12, 2, rng);
  Tensor in = random_input(Shape{3, 3, 2, 2});
  check_layer_gradients(fc, in);
}

// ------------------------------------------------------------ FLOP counts
TEST(LayerFlops, ConvFormula) {
  Rng rng(15);
  Conv2d conv("c", {3, 128, 3, 1, 1, false}, rng);
  const Shape in{1, 3, 224, 224};
  // 2 * OC * OHOW * IC*KH*KW = 2 * 128 * 50176 * 27.
  EXPECT_EQ(conv.forward_flops(in), 2ull * 128 * 50176 * 27);
  // Backward: two GEMMs of the same volume.
  EXPECT_EQ(conv.backward_flops(in), 2ull * conv.forward_flops(in));
}

TEST(LayerFlops, DenseFormula) {
  Rng rng(15);
  Dense fc("f", 128, 2, rng);
  const Shape in{8, 128};
  EXPECT_EQ(fc.forward_flops(in), 2ull * 8 * 2 * 128 + 8 * 2);
}

// ------------------------------------------------------- Bit-exactness
// The memory-bound layers fan out over the scheduler with branch-free
// inner loops. Each result must match, bit for bit, a frozen copy of the
// serial loop it replaced, including NaN, signed zeros, infinities and
// tied maxima, at sizes that are not a multiple of a chunk or SIMD width.

/// A mix of special values, ties and ordinary values.
Tensor hostile_input(const Shape& s, std::uint64_t seed) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float special[] = {std::numeric_limits<float>::quiet_NaN(),
                           0.0f, -0.0f, kInf, -kInf, 1.0f, -1.0f, 0.5f};
  Rng rng(seed);
  Tensor t(s);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const std::uint64_t pick = rng.uniform_int(16);
    t.at(i) = pick < 8 ? special[pick] : rng.uniform(-2.0f, 2.0f);
  }
  return t;
}

/// Bitwise equality, except that any two NaNs match: IEEE 754 leaves the
/// sign and payload of a NaN sum unspecified, and the compiler may
/// commute an addition, so even the old loop's NaN bits vary by build.
void expect_bits_equal(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  if (std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)) ==
      0) {
    return;
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (std::isnan(got.at(i)) && std::isnan(want.at(i))) continue;
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, got.data() + i, sizeof g);
    std::memcpy(&w, want.data() + i, sizeof w);
    ASSERT_EQ(g, w) << "first differing element " << i << ": " << got.at(i)
                    << " vs " << want.at(i);
  }
}

Tensor old_relu_forward(const Tensor& in) {
  Tensor out(in.shape());
  for (std::size_t i = 0; i < in.numel(); ++i) {
    out.data()[i] = in.data()[i] > 0.0f ? in.data()[i] : 0.0f;
  }
  return out;
}

Tensor old_relu_backward(const Tensor& in, const Tensor& dout) {
  Tensor din(in.shape());
  for (std::size_t i = 0; i < in.numel(); ++i) {
    din.data()[i] = in.data()[i] > 0.0f ? dout.data()[i] : 0.0f;
  }
  return din;
}

TEST(BitExact, ReluMatchesSerialLoop) {
  // Around the 16384-element task piece and the 4/8-lane SIMD widths.
  for (const std::size_t n : {1u, 7u, 33u, 16383u, 16384u, 16385u, 100003u}) {
    const Tensor in = hostile_input(Shape{n}, 0x1e1u + n);
    const Tensor dout = hostile_input(Shape{n}, 0x2e1u + n);
    ReLU relu("r");
    Tensor out, din;
    relu.forward(in, out);
    relu.backward(in, dout, din);
    expect_bits_equal(out, old_relu_forward(in));
    expect_bits_equal(din, old_relu_backward(in, dout));
  }
}

/// The serial max pool with flat size_t argmax that MaxPool2d ran before.
void old_maxpool(const Tensor& in, std::size_t k, std::size_t s,
                 const Tensor& dout, Tensor& out, Tensor& din) {
  const Shape& is = in.shape();
  const std::size_t ih = is.h(), iw = is.w();
  const std::size_t oh = (ih - k) / s + 1, ow = (iw - k) / s + 1;
  out = Tensor(Shape{is.n(), is.c(), oh, ow});
  std::vector<std::size_t> argmax(out.numel());
  for (std::size_t p = 0; p < is.n() * is.c(); ++p) {
    const float* src = in.data() + p * ih * iw;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const std::size_t idx = (y * s + ky) * iw + x * s + kx;
            if (src[idx] > best) {
              best = src[idx];
              best_idx = idx;
            }
          }
        }
        out.data()[p * oh * ow + y * ow + x] = best;
        argmax[p * oh * ow + y * ow + x] = p * ih * iw + best_idx;
      }
    }
  }
  din = Tensor(is);
  din.zero();
  for (std::size_t i = 0; i < dout.numel(); ++i) {
    din.data()[argmax[i]] += dout.data()[i];
  }
}

TEST(BitExact, MaxPoolMatchesSerialLoop) {
  struct Case {
    Shape in;
    std::size_t kernel, stride;
  };
  // Odd sizes, the HEP 2x2/2 pool, overlapping 3x3/2 windows (an input
  // collects several gradients) and 2x2/1, each large enough to fan out.
  const Case cases[] = {{Shape{1, 1, 5, 7}, 2, 2},
                        {Shape{8, 16, 34, 34}, 2, 2},
                        {Shape{3, 5, 33, 31}, 3, 2},
                        {Shape{8, 16, 17, 19}, 3, 2},
                        {Shape{2, 9, 23, 21}, 2, 1}};
  std::uint64_t seed = 0x9001;
  for (const Case& c : cases) {
    const Tensor in = hostile_input(c.in, seed++);
    MaxPool2d pool("p", c.kernel, c.stride);
    Tensor out, din;
    pool.forward(in, out);
    const Tensor dout = hostile_input(out.shape(), seed++);
    pool.backward(in, dout, din);
    Tensor want_out, want_din;
    old_maxpool(in, c.kernel, c.stride, dout, want_out, want_din);
    expect_bits_equal(out, want_out);
    expect_bits_equal(din, want_din);
  }
}

TEST(BitExact, MaxPoolFirstOfTiedMaximaWins) {
  // All-equal windows: the gradient goes to each window's first tap.
  // All-NaN windows select nothing and report -inf, as before.
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 2, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) in.at(i) = 3.0f;
  for (std::size_t i = 16; i < 32; ++i) {
    in.at(i) = std::numeric_limits<float>::quiet_NaN();
  }
  Tensor out, din;
  pool.forward(in, out);
  Tensor dout(out.shape());
  dout.fill(1.0f);
  pool.backward(in, dout, din);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) {
      const bool first = y % 2 == 0 && x % 2 == 0;
      EXPECT_EQ(din.at(y * 4 + x), first ? 1.0f : 0.0f) << y << "," << x;
    }
  }
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(out.at(i), -std::numeric_limits<float>::infinity());
  }
  // Every NaN-plane window's gradient lands on its plane's element 0.
  EXPECT_EQ(din.at(16), 4.0f);
}

TEST(BitExact, GlobalAvgPoolMatchesSerialLoop) {
  const Tensor in = random_input(Shape{8, 64, 9, 9});
  GlobalAvgPool gap("g");
  Tensor out, din;
  gap.forward(in, out);
  const Tensor dout = random_input(out.shape(), 78);
  gap.backward(in, dout, din);
  Tensor want_out(out.shape()), want_din(in.shape());
  const std::size_t plane = 81;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t p = 0; p < 8 * 64; ++p) {
    double s = 0.0;
    for (std::size_t i = 0; i < plane; ++i) s += in.data()[p * plane + i];
    want_out.data()[p] = static_cast<float>(s) * inv;
    const float g = dout.data()[p] * inv;
    for (std::size_t i = 0; i < plane; ++i) want_din.data()[p * plane + i] = g;
  }
  expect_bits_equal(out, want_out);
  expect_bits_equal(din, want_din);
}

/// The serial per-image bias-gradient accumulation both conv layers ran.
void old_bias_grad(const Tensor& dout, Tensor& grad) {
  const std::size_t n = dout.shape().n(), c = dout.shape().c();
  const std::size_t plane = dout.shape().h() * dout.shape().w();
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < c; ++oc) {
      double s = 0.0;
      const float* row = dout.data() + (img * c + oc) * plane;
      for (std::size_t i = 0; i < plane; ++i) s += row[i];
      grad.data()[oc] += static_cast<float>(s);
    }
  }
}

/// Two backward passes (the second accumulates onto the first) must
/// leave the bias gradient bit-identical to the serial loop's.
void expect_bias_grad_bit_exact(Layer& layer, const Shape& in_shape) {
  const Tensor in = random_input(in_shape, 0xb1a5);
  Tensor out, din;
  layer.forward(in, out);
  const Tensor dout = random_input(out.shape(), 0xb1a6);
  Param bias = layer.params()[1];
  ASSERT_EQ(bias.name, layer.name() + ".bias");
  bias.grad->fill(0.25f);
  Tensor want = bias.grad->clone();
  for (int pass = 0; pass < 2; ++pass) {
    layer.backward(in, dout, din);
    old_bias_grad(dout, want);
  }
  expect_bits_equal(*bias.grad, want);
}

TEST(BitExact, ConvBiasGradMatchesSerialLoop) {
  for (const std::size_t batch : {1u, 8u}) {
    Rng rng(21);
    Conv2d conv("c", {3, 16, 3, 1, 1, true}, rng);
    expect_bias_grad_bit_exact(conv, Shape{batch, 3, 48, 48});
  }
}

TEST(BitExact, DeconvBiasGradMatchesSerialLoop) {
  for (const std::size_t batch : {1u, 8u}) {
    Rng rng(22);
    Deconv2d dc("d", {8, 8, 6, 2, 2, true}, rng);
    expect_bias_grad_bit_exact(dc, Shape{batch, 8, 16, 16});
  }
}

TEST(BitExact, ImagePartialsFoldInImageOrder) {
  // Odd sizes and sizes around the 16384-element piece, from one image
  // up; the result must not depend on the scheduler width.
  TaskScheduler one_worker(1);
  std::uint64_t seed = 0xf01d;
  for (const std::size_t images : {1u, 3u, 8u}) {
    for (const std::size_t n : {1u, 7u, 16383u, 16384u, 16385u, 40001u}) {
      const Tensor parts = hostile_input(Shape{images, n}, seed++);
      const Tensor start = hostile_input(Shape{n}, seed++);
      Tensor want = start.clone();
      for (std::size_t img = 0; img < images; ++img) {
        for (std::size_t i = 0; i < n; ++i) {
          want.data()[i] += parts.data()[img * n + i];
        }
      }
      for (TaskScheduler* sched : {&TaskScheduler::global(), &one_worker}) {
        Tensor got = start.clone();
        accumulate_image_partials(parts.data(), images, n, got.data(), *sched);
        expect_bits_equal(got, want);
      }
    }
  }
}

TEST(BitExact, ImagePartialsPropagateNanAndInfinity) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  // Six elements, three images; the gradient starts at `grad`.
  float grad[6] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, kInf};
  const float parts[3 * 6] = {
      kInf, kInf, kNan, 1.0f, -kInf, 1.0f,   // image 0
      1.0f, -kInf, 1.0f, 1.0f, 1.0f, 1.0f,   // image 1
      2.0f, 1.0f, 1.0f, kNan, -kInf, -2.0f,  // image 2
  };
  accumulate_image_partials(parts, 3, 6, grad, TaskScheduler::global());
  EXPECT_EQ(grad[0], kInf);
  EXPECT_TRUE(std::isnan(grad[1]));  // +inf + -inf
  EXPECT_TRUE(std::isnan(grad[2]));  // NaN in the first image
  EXPECT_TRUE(std::isnan(grad[3]));  // NaN in the last image
  EXPECT_EQ(grad[4], -kInf);
  EXPECT_EQ(grad[5], kInf);  // a prefilled infinity survives

  float one[2] = {kNan, 1.0f};
  const float single[2] = {1.0f, kInf};
  accumulate_image_partials(single, 1, 2, one, TaskScheduler::global());
  EXPECT_TRUE(std::isnan(one[0]));
  EXPECT_EQ(one[1], kInf);
}

// ------------------------------------------- Image-parallel conv backward
// Conv2d and Deconv2d run their backward pass as one task per image: the
// image's data gradient, then its filter gradient into a zeroed partial,
// and the partials are folded onto the weight gradient in image order.
// Each layer is checked against the backends it resolved, called image
// by image.

/// Filter-gradient tolerance against the old serial accumulation,
/// relative to the largest gradient element. The old loop added every
/// image straight onto the gradient, so an im2col GEMM whose K = OH*OW
/// spans several 256-wide blocks added each block onto the running
/// gradient; the image-parallel pass sums an image's blocks first.
/// Reassociating b images of k blocks moves a float sum by about
/// (b + k) eps of its terms: ~1.4e-6 at batch 8 and 4 blocks. The cases
/// below reach 1.9e-7. The other backends add each image's finished sum
/// once, as before.
constexpr float kSerialOrderRelTol = 2e-6f;

/// One image's data pass (overwrites a din image) and filter pass
/// (accumulates into dweight).
struct ImagePasses {
  std::size_t in_img = 0;
  std::function<void(std::size_t img, float* din)> data;
  std::function<void(std::size_t img, float* dweight)> filter;
};

void check_image_parallel_backward(Layer& layer, const Tensor& in,
                                   const Tensor& dout,
                                   const ImagePasses& passes) {
  Tensor& grad = *layer.params()[0].grad;
  Rng rng(0x5eed);
  grad.fill_uniform(rng, -0.5f, 0.5f);  // backward must add onto this
  const Tensor prefill = grad.clone();

  Tensor ordered = prefill.clone();  // zeroed partials summed in order
  Tensor serial = prefill.clone();   // the old in-place accumulation
  Tensor want_din(in.shape());
  Tensor part(grad.shape());
  for (std::size_t img = 0; img < in.shape().n(); ++img) {
    part.zero();
    passes.filter(img, part.data());
    for (std::size_t i = 0; i < part.numel(); ++i) {
      ordered.data()[i] += part.data()[i];
    }
    passes.filter(img, serial.data());
    passes.data(img, want_din.data() + img * passes.in_img);
  }

  Tensor din;
  layer.backward(in, dout, din);
  const Tensor got = grad.clone();
  {
    SCOPED_TRACE("first backward vs ordered partials and per-image din");
    expect_bits_equal(got, ordered);
    expect_bits_equal(din, want_din);
  }

  float scale = 0.0f;
  for (std::size_t i = 0; i < serial.numel(); ++i) {
    scale = std::max(scale, std::abs(serial.at(i)));
  }
  for (std::size_t i = 0; i < serial.numel(); ++i) {
    ASSERT_LE(std::abs(got.at(i) - serial.at(i)), kSerialOrderRelTol * scale)
        << "filter gradient element " << i << " vs serial accumulation";
  }

  grad.copy_from(prefill);
  Tensor din2;
  layer.backward(in, dout, din2);
  SCOPED_TRACE("second backward vs first");
  expect_bits_equal(grad, got);
  expect_bits_equal(din2, din);
}

struct ForcedBackend {
  ConvAlgo algo;
  gemm::ConvBackendKind kind;
};
constexpr ForcedBackend kForcedBackends[] = {
    {ConvAlgo::kIm2col, gemm::ConvBackendKind::kIm2col},
    {ConvAlgo::kWinograd, gemm::ConvBackendKind::kWinograd}};
/// 32x32 spreads the im2col filter GEMM's K = 1024 over four KC blocks;
/// 8x8 (K = 64) fits in one.
constexpr std::size_t kBackwardSides[] = {32, 8};
constexpr std::size_t kBackwardBatches[] = {1, 3, 8};

/// The 3x3 stride-1 pad-1 convolution both layers below run.
gemm::ConvProblem same_3x3(std::size_t in_c, std::size_t out_c,
                           std::size_t side) {
  gemm::ConvProblem p;
  p.geom.in_c = in_c;
  p.geom.in_h = p.geom.in_w = side;
  p.geom.kernel_h = p.geom.kernel_w = 3;
  p.geom.pad_h = p.geom.pad_w = 1;
  p.out_c = out_c;
  return p;
}

TEST(ImageParallelBackward, Conv2dMatchesPerImagePasses) {
  using gemm::ConvPhase;
  for (const ForcedBackend& fb : kForcedBackends) {
    for (const std::size_t side : kBackwardSides) {
      for (const std::size_t batch : kBackwardBatches) {
        SCOPED_TRACE(std::string(gemm::to_string(fb.kind)) + " side " +
                     std::to_string(side) + " batch " +
                     std::to_string(batch));
        Rng rng(31);
        Conv2d conv("c", {3, 5, 3, 1, 1, true, fb.algo}, rng);
        const Tensor in = random_input(Shape{batch, 3, side, side},
                                       0xc0 + side + batch);
        Tensor out;
        conv.forward(in, out);
        const Tensor dout = random_input(out.shape(), 0xd0 + side + batch);

        const gemm::ConvProblem p = same_3x3(3, 5, side);
        const gemm::ConvBackendKind dkind =
            conv.backward_backend(in.shape(), ConvPhase::kBackwardData);
        const gemm::ConvBackendKind fkind =
            conv.backward_backend(in.shape(), ConvPhase::kBackwardFilter);
        ASSERT_EQ(dkind, fb.kind);
        ASSERT_EQ(fkind, fb.kind);
        const gemm::ConvBackend& dbe = gemm::backend(dkind);
        const gemm::ConvBackend& fbe = gemm::backend(fkind);
        const float* w = conv.weight().data();
        const auto dprep = dbe.prepare_backward_data(p, w);
        const std::size_t in_img = 3 * side * side, out_img = 5 * side * side;
        ImagePasses passes;
        passes.in_img = in_img;
        passes.data = [&](std::size_t img, float* din) {
          dbe.backward_data_prepared(p, dprep.get(),
                                     dout.data() + img * out_img, w, din);
        };
        passes.filter = [&](std::size_t img, float* dweight) {
          fbe.backward_filter(p, in.data() + img * in_img,
                              dout.data() + img * out_img, dweight);
        };
        check_image_parallel_backward(conv, in, dout, passes);
        EXPECT_EQ(conv.last_backward_filter_backend(), fb.kind);
      }
    }
  }
}

TEST(ImageParallelBackward, Deconv2dMatchesPerImagePasses) {
  using gemm::ConvPhase;
  // 3x3/1 pad 1 under every backend, and the climate decoder's 6x6/2
  // pad 2 under the backends that run it. The kAuto entry runs sub-pixel,
  // which has no forcing value, pinned in the plan cache.
  const struct {
    std::size_t kernel, stride, pad;
    std::vector<ForcedBackend> backends;
  } shapes[] = {
      {3, 1, 1, {std::begin(kForcedBackends), std::end(kForcedBackends)}},
      {6, 2, 2,
       {{ConvAlgo::kIm2col, gemm::ConvBackendKind::kIm2col},
        {ConvAlgo::kAuto, gemm::ConvBackendKind::kSubpixel}}},
  };
  for (const auto& shape : shapes) {
    for (const ForcedBackend& fb : shape.backends) {
      for (const std::size_t side : kBackwardSides) {
        for (const std::size_t batch : kBackwardBatches) {
          SCOPED_TRACE(std::string(gemm::to_string(fb.kind)) + " kernel " +
                       std::to_string(shape.kernel) + " side " +
                       std::to_string(side) + " batch " +
                       std::to_string(batch));
          // The underlying convolution maps the deconv output (3 channels)
          // onto its input (5 channels).
          const std::size_t out_side =
              (side - 1) * shape.stride + shape.kernel - 2 * shape.pad;
          gemm::ConvProblem p = same_3x3(3, 5, out_side);
          p.geom.kernel_h = p.geom.kernel_w = shape.kernel;
          p.geom.stride_h = p.geom.stride_w = shape.stride;
          p.geom.pad_h = p.geom.pad_w = shape.pad;
          std::optional<testing::PinnedConvPlans> pin;
          if (fb.algo == ConvAlgo::kAuto) pin.emplace(p, fb.kind);

          Rng rng(32);
          Deconv2d dc("d",
                      {5, 3, shape.kernel, shape.stride, shape.pad, true,
                       fb.algo},
                      rng);
          const Tensor in = random_input(Shape{batch, 5, side, side},
                                         0xe0 + side + batch);
          Tensor out;
          dc.forward(in, out);
          const Tensor dout = random_input(out.shape(), 0xf0 + side + batch);
          const gemm::ConvBackendKind dkind =
              dc.phase_backend(in.shape(), ConvPhase::kForward);
          const gemm::ConvBackendKind fkind =
              dc.phase_backend(in.shape(), ConvPhase::kBackwardFilter);
          ASSERT_EQ(dkind, fb.kind);
          ASSERT_EQ(fkind, fb.kind);
          const gemm::ConvBackend& dbe = gemm::backend(dkind);
          const gemm::ConvBackend& fbe = gemm::backend(fkind);
          const float* w = dc.params()[0].value->data();
          const std::size_t in_img = 5 * side * side;
          const std::size_t out_img = 3 * out_side * out_side;
          ImagePasses passes;
          passes.in_img = in_img;
          passes.data = [&](std::size_t img, float* din) {
            dbe.forward(p, dout.data() + img * out_img, w, nullptr, din);
          };
          passes.filter = [&](std::size_t img, float* dweight) {
            fbe.backward_filter(p, dout.data() + img * out_img,
                                in.data() + img * in_img, dweight);
          };
          check_image_parallel_backward(dc, in, dout, passes);
        }
      }
    }
  }
}

TEST(LayerFlops, BatchScalesLinearly) {
  Rng rng(15);
  Conv2d conv("c", {4, 8, 3, 1, 1, true}, rng);
  const auto f1 = conv.forward_flops(Shape{1, 4, 16, 16});
  const auto f4 = conv.forward_flops(Shape{4, 4, 16, 16});
  EXPECT_EQ(f4, 4 * f1);
}

}  // namespace
}  // namespace pf15::nn
