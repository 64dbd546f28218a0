// Convolution backend dispatch subsystem: registry contents and per-phase
// applicability, numerical agreement of every backend against the im2col
// reference on randomized geometries (forward, backward-data,
// backward-filter), the autotune plan cache (per-phase memoing, overrides,
// on-disk persistence round-trip and header rejection), Conv2d and
// Deconv2d dispatch through the shared table, the batch-parallel paths,
// Winograd tile selection, the sub-pixel backend on the climate decoder's
// geometries, and the tune::Space adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "check_failure.hpp"
#include "gradient_check.hpp"
#include "pinned_plans.hpp"

#include "common/rng.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "gemm/simd.hpp"
#include "gemm/subpixel.hpp"
#include "gemm/winograd.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/deconv2d.hpp"
#include "nn/network.hpp"
#include "tune/conv_space.hpp"

namespace pf15 {
namespace {

using gemm::ConvBackendKind;
using gemm::ConvPhase;

gemm::ConvProblem make_problem(std::size_t in_c, std::size_t out_c,
                               std::size_t hw, std::size_t kernel,
                               std::size_t stride, std::size_t pad) {
  gemm::ConvProblem p;
  p.geom.in_c = in_c;
  p.geom.in_h = p.geom.in_w = hw;
  p.geom.kernel_h = p.geom.kernel_w = kernel;
  p.geom.stride_h = p.geom.stride_w = stride;
  p.geom.pad_h = p.geom.pad_w = pad;
  p.out_c = out_c;
  return p;
}

struct ConvOperands {
  std::vector<float> image, weight, bias, dout;
};

ConvOperands random_operands(const gemm::ConvProblem& p, std::uint64_t seed) {
  const auto& g = p.geom;
  Rng rng(seed);
  ConvOperands ops;
  ops.image.resize(g.in_c * g.in_h * g.in_w);
  for (auto& v : ops.image) v = rng.uniform(-1.0f, 1.0f);
  ops.weight.resize(p.out_c * g.lowered_rows());
  for (auto& v : ops.weight) v = rng.uniform(-0.5f, 0.5f);
  ops.bias.resize(p.out_c);
  for (auto& v : ops.bias) v = rng.uniform(-0.2f, 0.2f);
  ops.dout.resize(p.out_c * g.lowered_cols());
  for (auto& v : ops.dout) v = rng.uniform(-1.0f, 1.0f);
  return ops;
}

/// im2col + naive GEMM ground truth for one image.
std::vector<float> reference_conv(const gemm::ConvProblem& p,
                                  const std::vector<float>& image,
                                  const std::vector<float>& weight,
                                  const std::vector<float>& bias) {
  const auto& g = p.geom;
  std::vector<float> col(g.lowered_rows() * g.lowered_cols());
  gemm::im2col(g, image.data(), col.data());
  std::vector<float> out(p.out_c * g.lowered_cols(), 0.0f);
  gemm::sgemm_naive(false, false, p.out_c, g.lowered_cols(),
                    g.lowered_rows(), 1.0f, weight.data(), g.lowered_rows(),
                    col.data(), g.lowered_cols(), 0.0f, out.data(),
                    g.lowered_cols());
  if (!bias.empty()) {
    for (std::size_t oc = 0; oc < p.out_c; ++oc) {
      for (std::size_t i = 0; i < g.lowered_cols(); ++i) {
        out[oc * g.lowered_cols() + i] += bias[oc];
      }
    }
  }
  return out;
}

/// im2col-adjoint ground truth for the data gradient.
std::vector<float> reference_backward_data(const gemm::ConvProblem& p,
                                           const std::vector<float>& dout,
                                           const std::vector<float>& weight) {
  const auto& g = p.geom;
  std::vector<float> dcol(g.lowered_rows() * g.lowered_cols());
  gemm::sgemm_naive(true, false, g.lowered_rows(), g.lowered_cols(),
                    p.out_c, 1.0f, weight.data(), g.lowered_rows(),
                    dout.data(), g.lowered_cols(), 0.0f, dcol.data(),
                    g.lowered_cols());
  std::vector<float> din(g.in_c * g.in_h * g.in_w, 0.0f);
  gemm::col2im(g, dcol.data(), din.data());
  return din;
}

/// im2col-adjoint ground truth for the filter gradient.
std::vector<float> reference_backward_filter(
    const gemm::ConvProblem& p, const std::vector<float>& image,
    const std::vector<float>& dout) {
  const auto& g = p.geom;
  std::vector<float> col(g.lowered_rows() * g.lowered_cols());
  gemm::im2col(g, image.data(), col.data());
  std::vector<float> dw(p.out_c * g.lowered_rows(), 0.0f);
  gemm::sgemm_naive(false, true, p.out_c, g.lowered_rows(),
                    g.lowered_cols(), 1.0f, dout.data(), g.lowered_cols(),
                    col.data(), g.lowered_cols(), 1.0f, dw.data(),
                    g.lowered_rows());
  return dw;
}

// ---- registry --------------------------------------------------------------

TEST(ConvBackendRegistry, AllThreeKindsRegistered) {
  const auto& table = gemm::all_backends();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0]->kind(), ConvBackendKind::kIm2col);
  EXPECT_EQ(table[1]->kind(), ConvBackendKind::kWinograd);
  EXPECT_EQ(table[2]->kind(), ConvBackendKind::kSubpixel);
  for (const auto* b : table) {
    EXPECT_EQ(&gemm::backend(b->kind()), b);
  }
}

TEST(ConvBackendRegistry, RetiredCodesTwoAndThreeNameNoBackend) {
  // Values 2 (FFT) and 3 (direct loops) stay unused so that 0, 1 and 4
  // keep their meaning in perf records and tune::Space codes; neither may
  // resolve to a backend, and neither retired name parses.
  EXPECT_EQ(static_cast<int>(ConvBackendKind::kIm2col), 0);
  EXPECT_EQ(static_cast<int>(ConvBackendKind::kWinograd), 1);
  EXPECT_EQ(static_cast<int>(ConvBackendKind::kSubpixel), 4);
  for (const int code : {2, 3}) {
    const auto retired = static_cast<ConvBackendKind>(code);
    EXPECT_STREQ(gemm::to_string(retired), "unknown");
    PF15_EXPECT_CHECK_FAIL(gemm::backend(retired),
                           "unknown ConvBackendKind " + std::to_string(code));
  }
  EXPECT_FALSE(gemm::parse_backend("fft").has_value());
  EXPECT_FALSE(gemm::parse_backend("direct").has_value());
}

TEST(ConvBackendRegistry, NamesRoundTrip) {
  for (const auto* b : gemm::all_backends()) {
    const auto parsed = gemm::parse_backend(b->name());
    ASSERT_TRUE(parsed.has_value()) << b->name();
    EXPECT_EQ(*parsed, b->kind());
  }
  EXPECT_FALSE(gemm::parse_backend("mkl").has_value());
}

TEST(ConvBackendRegistry, PhaseNamesRoundTrip) {
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    const auto parsed = gemm::parse_phase(gemm::to_string(phase));
    ASSERT_TRUE(parsed.has_value()) << gemm::to_string(phase);
    EXPECT_EQ(*parsed, phase);
  }
  EXPECT_FALSE(gemm::parse_phase("inference").has_value());
}

TEST(ConvBackendRegistry, WinogradApplicabilityIs3x3Stride1) {
  const auto& winograd = gemm::backend(ConvBackendKind::kWinograd);
  EXPECT_TRUE(winograd.applicable(make_problem(2, 3, 8, 3, 1, 1)));
  EXPECT_FALSE(winograd.applicable(make_problem(2, 3, 8, 5, 1, 2)));
  EXPECT_FALSE(winograd.applicable(make_problem(2, 3, 8, 3, 2, 1)));
  // im2col applies everywhere, every phase.
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    EXPECT_TRUE(gemm::backend(ConvBackendKind::kIm2col)
                    .applicable(make_problem(2, 3, 8, 5, 3, 2), phase));
  }
}

TEST(ConvBackendRegistry, WinogradBackwardDataNeedsPadAtMost2) {
  const auto& winograd = gemm::backend(ConvBackendKind::kWinograd);
  EXPECT_TRUE(winograd.applicable(make_problem(2, 3, 8, 3, 1, 1),
                                  ConvPhase::kBackwardData));
  EXPECT_TRUE(winograd.applicable(make_problem(2, 3, 8, 3, 1, 2),
                                  ConvPhase::kBackwardData));
  EXPECT_FALSE(winograd.applicable(make_problem(2, 3, 8, 3, 1, 3),
                                   ConvPhase::kBackwardData));
  // ... but pad 3 is still fine forward and for the filter gradient.
  EXPECT_TRUE(winograd.applicable(make_problem(2, 3, 8, 3, 1, 3),
                                  ConvPhase::kForward));
  EXPECT_TRUE(winograd.applicable(make_problem(2, 3, 8, 3, 1, 3),
                                  ConvPhase::kBackwardFilter));
}

TEST(ConvBackendRegistry, ApplicableBackendsFilters) {
  const auto for_5x5 =
      gemm::applicable_backends(make_problem(2, 3, 9, 5, 2, 2));
  ASSERT_EQ(for_5x5.size(), 1u);  // im2col
  const auto for_3x3 =
      gemm::applicable_backends(make_problem(2, 3, 9, 3, 1, 1));
  EXPECT_EQ(for_3x3.size(), 2u);  // im2col and Winograd
  // Backward: the full field stays in the race.
  const auto bwd_3x3 = gemm::applicable_backends(
      make_problem(2, 3, 9, 3, 1, 1), ConvPhase::kBackwardData);
  EXPECT_EQ(bwd_3x3.size(), 2u);
  // Winograd declines backward-data at pad 3.
  const auto bwd_pad3 = gemm::applicable_backends(
      make_problem(2, 3, 9, 3, 1, 3), ConvPhase::kBackwardData);
  EXPECT_EQ(bwd_pad3.size(), 1u);
}

TEST(ConvBackendRegistry, SubpixelNeedsKernel2PadPlusStrideAndStrideDivPad) {
  const auto& subpixel = gemm::backend(ConvBackendKind::kSubpixel);
  const auto runs_every_phase = [&](const gemm::ConvProblem& p) {
    bool all = true;
    for (const ConvPhase phase : gemm::kAllConvPhases) {
      all = all && subpixel.applicable(p, phase);
    }
    return all;
  };
  const auto declines_every_phase = [&](const gemm::ConvProblem& p) {
    bool none = true;
    for (const ConvPhase phase : gemm::kAllConvPhases) {
      none = none && !subpixel.applicable(p, phase);
    }
    return none;
  };
  // The climate decoder's 6x6/2 pad 2, and the same rule at s = 3 and at
  // pad 2s.
  EXPECT_TRUE(runs_every_phase(make_problem(2, 3, 8, 6, 2, 2)));
  EXPECT_TRUE(runs_every_phase(make_problem(2, 3, 9, 9, 3, 3)));
  EXPECT_TRUE(runs_every_phase(make_problem(2, 3, 8, 10, 2, 4)));
  // 4x4/2 pad 1 (Deconv2d.GradientCheck): k = 2p + s, but s does not
  // divide p.
  EXPECT_TRUE(declines_every_phase(make_problem(2, 3, 8, 4, 2, 1)));
  // An odd input side at the decoder's kernel, stride and pad.
  EXPECT_TRUE(declines_every_phase(make_problem(2, 3, 7, 6, 2, 2)));
  gemm::ConvProblem odd_w = make_problem(2, 3, 8, 6, 2, 2);
  odd_w.geom.in_w = 9;
  EXPECT_TRUE(declines_every_phase(odd_w));
  // t = 1: a pixel shuffle.
  EXPECT_TRUE(runs_every_phase(make_problem(2, 3, 8, 2, 2, 0)));
  // Stride 1 (3x3 pad 1 meets k = 2p + s and s | p).
  EXPECT_TRUE(declines_every_phase(make_problem(2, 3, 8, 3, 1, 1)));
  // The encoder's 5x5/2 pad 2: k != 2p + s.
  EXPECT_TRUE(declines_every_phase(make_problem(2, 3, 8, 5, 2, 2)));
  // Unequal axes.
  gemm::ConvProblem aniso = make_problem(2, 3, 8, 6, 2, 2);
  aniso.geom.pad_w = 4;
  aniso.geom.kernel_w = 10;
  EXPECT_TRUE(declines_every_phase(aniso));
}

// ---- numerical agreement ---------------------------------------------------

struct AgreementCase {
  std::size_t in_c, out_c, hw, kernel, stride, pad;
};

class BackendAgreement : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(BackendAgreement, ForwardMatchesReferenceTo1e4) {
  const auto c = GetParam();
  const gemm::ConvProblem p =
      make_problem(c.in_c, c.out_c, c.hw, c.kernel, c.stride, c.pad);
  const ConvOperands ops =
      random_operands(p, 0x5eedULL + c.in_c * 131 + c.hw * 17 + c.kernel);
  const std::vector<float> ref =
      reference_conv(p, ops.image, ops.weight, ops.bias);
  for (const gemm::ConvBackend* b : gemm::applicable_backends(p)) {
    std::vector<float> out(ref.size(), -77.0f);
    b->forward(p, ops.image.data(), ops.weight.data(), ops.bias.data(),
               out.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out[i], ref[i], 1e-4f) << b->name() << " element " << i;
    }
  }
}

TEST_P(BackendAgreement, BackwardDataMatchesIm2colAdjoint) {
  const auto c = GetParam();
  const gemm::ConvProblem p =
      make_problem(c.in_c, c.out_c, c.hw, c.kernel, c.stride, c.pad);
  const ConvOperands ops =
      random_operands(p, 0xda7aULL + c.hw * 31 + c.pad * 7 + c.kernel);
  const std::vector<float> ref =
      reference_backward_data(p, ops.dout, ops.weight);
  for (const gemm::ConvBackend* b :
       gemm::applicable_backends(p, ConvPhase::kBackwardData)) {
    std::vector<float> din(ref.size(), -77.0f);
    b->backward_data(p, ops.dout.data(), ops.weight.data(), din.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(din[i], ref[i], 1e-4f) << b->name() << " element " << i;
    }
  }
}

TEST_P(BackendAgreement, BackwardFilterAccumulatesIm2colAdjoint) {
  const auto c = GetParam();
  const gemm::ConvProblem p =
      make_problem(c.in_c, c.out_c, c.hw, c.kernel, c.stride, c.pad);
  const ConvOperands ops =
      random_operands(p, 0xf117e6ULL + c.hw * 13 + c.pad * 3 + c.stride);
  const std::vector<float> ref =
      reference_backward_filter(p, ops.image, ops.dout);
  for (const gemm::ConvBackend* b :
       gemm::applicable_backends(p, ConvPhase::kBackwardFilter)) {
    // Pre-seed dweight to verify the += accumulation contract.
    std::vector<float> dw(ref.size(), 0.25f);
    b->backward_filter(p, ops.image.data(), ops.dout.data(), dw.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(dw[i] - 0.25f, ref[i], 2e-4f)
          << b->name() << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGeometries, BackendAgreement,
    ::testing::Values(AgreementCase{1, 1, 5, 3, 1, 1},   // minimal 3x3
                      AgreementCase{3, 8, 12, 3, 1, 1},  // even spatial
                      AgreementCase{4, 2, 11, 3, 1, 0},  // odd, no pad
                      AgreementCase{2, 5, 9, 5, 1, 2},   // 5x5 stride 1
                      AgreementCase{5, 3, 10, 5, 2, 2},  // strided 5x5
                      AgreementCase{2, 4, 7, 1, 1, 0},   // pointwise
                      AgreementCase{3, 3, 8, 3, 2, 1},   // strided 3x3
                      AgreementCase{1, 2, 6, 4, 2, 1})); // even kernel

// ---- Winograd tiles --------------------------------------------------------

TEST(WinogradTiles, PickTileSwitchesAtLargeOutputs) {
  EXPECT_EQ(gemm::winograd_pick_tile(4, 4), gemm::WinogradTile::kF2x2);
  EXPECT_EQ(gemm::winograd_pick_tile(6, 6), gemm::WinogradTile::kF4x4);
  EXPECT_EQ(gemm::winograd_pick_tile(24, 24), gemm::WinogradTile::kF4x4);
  EXPECT_EQ(gemm::winograd_pick_tile(6, 4), gemm::WinogradTile::kF2x2);
}

TEST(WinogradTiles, BothTilesMatchReferenceAcrossSizesAndPads) {
  // Odd and even spatial sizes, pads 0/1/2, both tiles: the ragged-edge
  // handling and the zero-padded gathers must agree with im2col exactly.
  for (std::size_t h : {5u, 6u, 9u, 12u}) {
    for (std::size_t pad : {0u, 1u, 2u}) {
      if (h + 2 * pad < 3) continue;
      const gemm::ConvProblem p = make_problem(3, 4, h, 3, 1, pad);
      const ConvOperands ops = random_operands(p, 0x711e5ULL + h * 10 + pad);
      const std::vector<float> ref =
          reference_conv(p, ops.image, ops.weight, ops.bias);
      for (auto tile :
           {gemm::WinogradTile::kF2x2, gemm::WinogradTile::kF4x4}) {
        std::vector<float> out(ref.size(), -77.0f);
        gemm::winograd_conv3x3(ops.image.data(), p.geom.in_c, h, h,
                               ops.weight.data(), p.out_c, pad,
                               ops.bias.data(), out.data(), tile);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(out[i], ref[i], 1e-4f)
              << gemm::to_string(tile) << " h=" << h << " pad=" << pad
              << " element " << i;
        }
      }
    }
  }
}

TEST(ConvBackendPrep, WinogradPreparedBackwardDataMatchesUnprepared) {
  // prepare_backward_data hoists the rotated/transformed filter bank out
  // of the batch loop; the prepared path must reproduce the per-image
  // path exactly (same transform-domain arithmetic, just precomputed),
  // across pads 0..2 and both tile regimes.
  const auto& winograd = gemm::backend(gemm::ConvBackendKind::kWinograd);
  for (std::size_t h : {5u, 8u, 16u}) {
    for (std::size_t pad : {0u, 1u, 2u}) {
      const gemm::ConvProblem p = make_problem(3, 4, h, 3, 1, pad);
      ASSERT_TRUE(winograd.applicable(p, ConvPhase::kBackwardData));
      const ConvOperands ops = random_operands(p, 0xb4dd ^ (h * 10 + pad));
      std::vector<float> plain(p.geom.in_c * h * h, -9.0f);
      winograd.backward_data(p, ops.dout.data(), ops.weight.data(),
                             plain.data());
      const std::unique_ptr<gemm::ConvPrep> prep =
          winograd.prepare_backward_data(p, ops.weight.data());
      ASSERT_NE(prep, nullptr);
      std::vector<float> prepared(plain.size(), 9.0f);
      winograd.backward_data_prepared(p, prep.get(), ops.dout.data(),
                                      ops.weight.data(), prepared.data());
      for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_EQ(prepared[i], plain[i])
            << "h=" << h << " pad=" << pad << " element " << i;
      }
      // And both must agree with the im2col-adjoint reference.
      const std::vector<float> ref =
          reference_backward_data(p, ops.dout, ops.weight);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_NEAR(prepared[i], ref[i], 1e-4f)
            << "h=" << h << " pad=" << pad << " element " << i;
      }
    }
  }
}

// The im2col prep packs the filter matrix into sgemm's panels once; the
// prepared entry points must reproduce the plain ones bit for bit. The
// geometries cover output sides of 1, 2 and 4 px (n < 16, where a
// GEMM with m >= 16 runs channel-major) and larger ones, out_c not a
// multiple of the 6-row tile, K above the 256-deep K block, and N above
// the 2048-column N block (3 -> 32 at 64 px: N = 4096).
TEST(ConvBackendPrep, Im2colPreparedMatchesPlainBitForBit) {
  const auto& im2col = gemm::backend(ConvBackendKind::kIm2col);
  const struct {
    std::size_t in_c, out_c, hw, kernel, stride, pad;
  } cases[] = {
      {80, 4, 2, 3, 1, 1},    // 2 px out, K 720, out_c 4 (a climate head)
      {64, 80, 3, 5, 2, 2},   // 2 px out, K 1600 (enc_conv5)
      {48, 64, 8, 5, 2, 2},   // 4 px out, K 1200 (enc_conv4)
      {32, 20, 1, 3, 1, 1},   // 1 px out, out_c 20
      {24, 17, 2, 1, 1, 0},   // 2 px out, K 24, out_c 17
      {13, 29, 9, 3, 1, 1},   // 9 px out (n 81), K 117, out_c 29
      {16, 32, 32, 5, 2, 2},  // 16 px out (n 256), K 400
      {3, 32, 64, 3, 1, 1},   // 64 px out (n 4096), K 27
  };
  for (const auto& c : cases) {
    const gemm::ConvProblem p =
        make_problem(c.in_c, c.out_c, c.hw, c.kernel, c.stride, c.pad);
    const ConvOperands ops = random_operands(p, 0x1c0 + c.in_c * c.hw);
    const std::string where = "in_c " + std::to_string(c.in_c) + " out_c " +
                              std::to_string(c.out_c) + " hw " +
                              std::to_string(c.hw);

    const std::size_t out_n = p.out_c * p.geom.lowered_cols();
    std::vector<float> plain(out_n, -1.0f), prepared(out_n, -2.0f);
    im2col.forward(p, ops.image.data(), ops.weight.data(), ops.bias.data(),
                   plain.data());
    const std::unique_ptr<gemm::ConvPrep> fprep =
        im2col.prepare_forward(p, ops.weight.data());
    ASSERT_NE(fprep, nullptr) << where;
    im2col.forward_prepared(p, fprep.get(), ops.image.data(),
                            ops.weight.data(), ops.bias.data(),
                            prepared.data());
    ASSERT_EQ(std::memcmp(plain.data(), prepared.data(),
                          out_n * sizeof(float)),
              0)
        << "forward, " << where;

    const std::size_t in_n = ops.image.size();
    std::vector<float> dplain(in_n, -1.0f), dprepared(in_n, -2.0f);
    im2col.backward_data(p, ops.dout.data(), ops.weight.data(),
                         dplain.data());
    const std::unique_ptr<gemm::ConvPrep> dprep =
        im2col.prepare_backward_data(p, ops.weight.data());
    ASSERT_NE(dprep, nullptr) << where;
    im2col.backward_data_prepared(p, dprep.get(), ops.dout.data(),
                                  ops.weight.data(), dprepared.data());
    ASSERT_EQ(std::memcmp(dplain.data(), dprepared.data(),
                          in_n * sizeof(float)),
              0)
        << "backward_data, " << where;
  }
}

TEST(WinogradTiles, BothTilesComputeTheFilterGradient) {
  for (std::size_t h : {5u, 8u, 11u}) {
    for (std::size_t pad : {0u, 1u}) {
      const gemm::ConvProblem p = make_problem(2, 3, h, 3, 1, pad);
      const ConvOperands ops = random_operands(p, 0x6e4dULL + h * 10 + pad);
      const std::vector<float> ref =
          reference_backward_filter(p, ops.image, ops.dout);
      for (auto tile :
           {gemm::WinogradTile::kF2x2, gemm::WinogradTile::kF4x4}) {
        std::vector<float> dw(ref.size(), 0.0f);
        gemm::winograd_backward_filter3x3(ops.image.data(), p.geom.in_c, h,
                                          h, ops.dout.data(), p.out_c, pad,
                                          dw.data(), tile);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(dw[i], ref[i], 2e-4f)
              << gemm::to_string(tile) << " h=" << h << " pad=" << pad
              << " element " << i;
        }
      }
    }
  }
}

// ---- sub-pixel -------------------------------------------------------------

/// The five 6x6/2 pad-2 deconvolutions of the benchmarked climate decoder
/// (64 px, 16 channels, widths {16, 32, 48, 64, 80}) as the convolutions
/// they run: in_c and hw are a deconv's output channels and side, out_c
/// its input channels.
std::vector<gemm::ConvProblem> decoder_problems() {
  return {make_problem(64, 80, 4, 6, 2, 2), make_problem(48, 64, 8, 6, 2, 2),
          make_problem(32, 48, 16, 6, 2, 2),
          make_problem(16, 32, 32, 6, 2, 2),
          make_problem(16, 16, 64, 6, 2, 2)};
}

/// The decoder problems plus a sweep over strides s in {2, 3}, pads
/// p in {0, s, 2s} (k = 2p + s), channel counts and sides, and one
/// input with in_h != in_w.
std::vector<gemm::ConvProblem> subpixel_sweep() {
  std::vector<gemm::ConvProblem> out = decoder_problems();
  const std::pair<std::size_t, std::size_t> channels[] = {
      {1, 1}, {3, 5}, {8, 4}};
  for (const std::size_t s : {2u, 3u}) {
    for (const std::size_t pad : {std::size_t{0}, s, 2 * s}) {
      for (const auto& [in_c, out_c] : channels) {
        for (const std::size_t side : {s, 3 * s, 5 * s}) {
          out.push_back(make_problem(in_c, out_c, side, 2 * pad + s, s, pad));
        }
      }
    }
  }
  gemm::ConvProblem wide = make_problem(3, 4, 6, 6, 2, 2);
  wide.geom.in_w = 10;
  out.push_back(wide);
  return out;
}

/// max |got - want| over max |want|.
double rel_max_error(const std::vector<float>& got,
                     const std::vector<float>& want) {
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(got[i]) - want[i]));
    scale = std::max(scale, std::abs(static_cast<double>(want[i])));
  }
  return err / scale;
}

/// One serial call of `b` in `phase`: the forward output (with bias), the
/// data gradient, or the filter gradient accumulated onto zeros.
std::vector<float> run_phase(const gemm::ConvBackend& b,
                             const gemm::ConvProblem& p, ConvPhase phase,
                             const ConvOperands& ops) {
  const auto& g = p.geom;
  switch (phase) {
    case ConvPhase::kForward: {
      std::vector<float> out(p.out_c * g.lowered_cols(), -7.0f);
      b.forward(p, ops.image.data(), ops.weight.data(), ops.bias.data(),
                out.data());
      return out;
    }
    case ConvPhase::kBackwardData: {
      std::vector<float> din(g.in_c * g.in_h * g.in_w, -7.0f);
      b.backward_data(p, ops.dout.data(), ops.weight.data(), din.data());
      return din;
    }
    case ConvPhase::kBackwardFilter:
      break;
  }
  std::vector<float> dw(ops.weight.size(), 0.0f);
  b.backward_filter(p, ops.image.data(), ops.dout.data(), dw.data());
  return dw;
}

TEST(SubpixelBackend, MatchesIm2colEveryPhaseWithin1e5) {
  const auto& im2col = gemm::backend(ConvBackendKind::kIm2col);
  const auto& subpixel = gemm::backend(ConvBackendKind::kSubpixel);
  std::uint64_t seed = 0x5b9;
  for (const gemm::ConvProblem& p : subpixel_sweep()) {
    const auto& g = p.geom;
    std::ostringstream what;
    what << g.in_c << "->" << p.out_c << " " << g.in_h << "x" << g.in_w
         << " k" << g.kernel_h << "/" << g.stride_h << " pad " << g.pad_h;
    SCOPED_TRACE(what.str());
    const ConvOperands ops = random_operands(p, ++seed);
    for (const ConvPhase phase : gemm::kAllConvPhases) {
      ASSERT_TRUE(subpixel.applicable(p, phase)) << gemm::to_string(phase);
      EXPECT_LE(rel_max_error(run_phase(subpixel, p, phase, ops),
                              run_phase(im2col, p, phase, ops)),
                1e-5)
          << gemm::to_string(phase);
    }
  }
}

TEST(SubpixelBackend, FilterGradientAccumulatesAndPrepMatchesBitwise) {
  const auto& subpixel = gemm::backend(ConvBackendKind::kSubpixel);
  const gemm::ConvProblem p = make_problem(6, 5, 12, 6, 2, 2);
  const ConvOperands ops = random_operands(p, 0x5e1f);
  // += contract: a second call onto the first call's sum doubles it.
  std::vector<float> once(ops.weight.size(), 0.0f);
  subpixel.backward_filter(p, ops.image.data(), ops.dout.data(),
                           once.data());
  std::vector<float> twice = once;
  subpixel.backward_filter(p, ops.image.data(), ops.dout.data(),
                           twice.data());
  for (std::size_t i = 0; i < once.size(); ++i) {
    ASSERT_EQ(twice[i], 2.0f * once[i]) << "element " << i;
  }
  // The prepared entry points reuse the W2 the plain ones build per call.
  const std::size_t out_n = p.out_c * p.geom.lowered_cols();
  std::vector<float> plain(out_n), prepared(out_n, 5.0f);
  subpixel.forward(p, ops.image.data(), ops.weight.data(), ops.bias.data(),
                   plain.data());
  const auto fprep = subpixel.prepare_forward(p, ops.weight.data());
  ASSERT_NE(fprep, nullptr);
  subpixel.forward_prepared(p, fprep.get(), ops.image.data(),
                            ops.weight.data(), ops.bias.data(),
                            prepared.data());
  EXPECT_EQ(prepared, plain);
  const std::size_t in_n = p.geom.in_c * p.geom.in_h * p.geom.in_w;
  std::vector<float> dplain(in_n), dprepared(in_n, 5.0f);
  subpixel.backward_data(p, ops.dout.data(), ops.weight.data(),
                         dplain.data());
  const auto dprep = subpixel.prepare_backward_data(p, ops.weight.data());
  ASSERT_NE(dprep, nullptr);
  subpixel.backward_data_prepared(p, dprep.get(), ops.dout.data(),
                                  ops.weight.data(), dprepared.data());
  EXPECT_EQ(dprepared, dplain);
}

TEST(SubpixelBackend, DepthToSpaceInvertsSpaceToDepth) {
  for (const std::size_t s : {2u, 3u}) {
    gemm::ConvGeom g;
    g.in_c = 3;
    g.in_h = 4 * s;
    g.in_w = 2 * s;
    g.kernel_h = g.kernel_w = 3 * s;
    g.stride_h = g.stride_w = s;
    g.pad_h = g.pad_w = s;
    std::vector<float> image(g.in_c * g.in_h * g.in_w);
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<float>(i);
    }
    std::vector<float> s2d(image.size(), -1.0f);
    gemm::space_to_depth(g, image.data(), s2d.data());
    // Plane (a·s + b)·C + c holds X[c][s·y + a][s·x + b].
    const std::size_t h = g.in_h / s, w = g.in_w / s;
    const std::size_t a = s - 1, b = 1, c = 2, y = 3, x = 1;
    EXPECT_EQ(s2d[(((a * s + b) * g.in_c + c) * h + y) * w + x],
              image[(c * g.in_h + s * y + a) * g.in_w + s * x + b]);
    std::vector<float> back(image.size(), -1.0f);
    gemm::depth_to_space(g, s2d.data(), back.data());
    EXPECT_EQ(back, image) << "s = " << s;
  }
}

// ---- autotune + plan cache -------------------------------------------------

gemm::AutotuneOptions fast_tune() {
  gemm::AutotuneOptions opt;
  opt.warmup = 0;
  opt.reps = 1;
  return opt;
}

TEST(Autotune, WinnerIsApplicableAndNeverSlowerThanIm2col) {
  const gemm::ConvProblem p = make_problem(4, 6, 12, 3, 1, 1);
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    const gemm::ConvPlan plan = gemm::autotune(p, fast_tune(), phase);
    EXPECT_TRUE(plan.tuned);
    EXPECT_TRUE(gemm::backend(plan.kind).applicable(p, phase));
    EXPECT_LE(plan.best_us, plan.im2col_us);
    EXPECT_GT(plan.best_us, 0.0);
  }
}

TEST(Autotune, BenchmarkRejectsInapplicableBackend) {
  const gemm::ConvProblem strided = make_problem(2, 2, 8, 3, 2, 1);
  PF15_EXPECT_CHECK_FAIL(
      gemm::benchmark_backend(gemm::backend(ConvBackendKind::kWinograd),
                              strided, fast_tune()),
      "not applicable");
  // Winograd declines backward-data at pad 3 (but not forward).
  PF15_EXPECT_CHECK_FAIL(
      gemm::benchmark_backend(gemm::backend(ConvBackendKind::kWinograd),
                              make_problem(2, 2, 8, 3, 1, 3), fast_tune(),
                              ConvPhase::kBackwardData),
      "not applicable");
}

/// Counts the entry points benchmark_backend calls; computes nothing.
class CountingBackend final : public gemm::ConvBackend {
 public:
  struct Prep final : gemm::ConvPrep {};
  mutable int prepares = 0, prepared_calls = 0, plain_calls = 0;

  ConvBackendKind kind() const override {
    return ConvBackendKind::kWinograd;
  }
  bool applicable(const gemm::ConvProblem&, ConvPhase) const override {
    return true;
  }
  void forward(const gemm::ConvProblem&, const float*, const float*,
               const float*, float*) const override {
    ++plain_calls;
  }
  std::unique_ptr<gemm::ConvPrep> prepare_forward(
      const gemm::ConvProblem&, const float*) const override {
    ++prepares;
    return std::make_unique<Prep>();
  }
  void forward_prepared(const gemm::ConvProblem&, const gemm::ConvPrep* prep,
                        const float*, const float*, const float*,
                        float*) const override {
    EXPECT_NE(prep, nullptr);
    ++prepared_calls;
  }
  void backward_data(const gemm::ConvProblem&, const float*, const float*,
                     float*) const override {
    ++plain_calls;
  }
  std::unique_ptr<gemm::ConvPrep> prepare_backward_data(
      const gemm::ConvProblem&, const float*) const override {
    ++prepares;
    return std::make_unique<Prep>();
  }
  void backward_data_prepared(const gemm::ConvProblem&,
                              const gemm::ConvPrep* prep, const float*,
                              const float*, float*) const override {
    EXPECT_NE(prep, nullptr);
    ++prepared_calls;
  }
  void backward_filter(const gemm::ConvProblem&, const float*, const float*,
                       float*) const override {
    ++plain_calls;
  }
  std::uint64_t flops(const gemm::ConvProblem&, ConvPhase) const override {
    return 1;
  }
};

TEST(Autotune, BenchmarkTimesPreparedEntryPointsWithOnePrep) {
  // The race must time what layers run: one prep per batch, then the
  // prepared entry point per image — never the plain one, which would
  // charge weight-only work (filter packing, transforms) to every image.
  const gemm::ConvProblem p = make_problem(2, 3, 6, 3, 1, 1);
  gemm::AutotuneOptions opt;
  opt.warmup = 2;
  opt.reps = 3;
  for (const ConvPhase phase :
       {ConvPhase::kForward, ConvPhase::kBackwardData}) {
    const CountingBackend counting;
    gemm::benchmark_backend(counting, p, opt, phase);
    EXPECT_EQ(counting.prepares, 1) << gemm::to_string(phase);
    EXPECT_EQ(counting.prepared_calls, 5) << gemm::to_string(phase);
    EXPECT_EQ(counting.plain_calls, 0) << gemm::to_string(phase);
  }
}

TEST(PlanCache, MemoizesFirstSightAndCountsHits) {
  gemm::ConvPlanCache cache(fast_tune());
  const gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  EXPECT_FALSE(cache.lookup(p).has_value());
  const gemm::ConvPlan first = cache.plan(p);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  const gemm::ConvPlan again = cache.plan(p);
  EXPECT_EQ(cache.hits(), 1u);
  // The memo returns the identical plan, not a re-measurement.
  EXPECT_EQ(again.kind, first.kind);
  EXPECT_EQ(again.best_us, first.best_us);
  ASSERT_TRUE(cache.lookup(p).has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PlanCache, PhasesTuneIndependently) {
  gemm::ConvPlanCache cache(fast_tune());
  const gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  cache.plan(p, ConvPhase::kForward);
  EXPECT_FALSE(cache.lookup(p, ConvPhase::kBackwardData).has_value());
  EXPECT_FALSE(cache.lookup(p, ConvPhase::kBackwardFilter).has_value());
  cache.plan(p, ConvPhase::kBackwardData);
  cache.plan(p, ConvPhase::kBackwardFilter);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(PlanCache, DistinctGeometriesGetDistinctEntries) {
  gemm::ConvPlanCache cache(fast_tune());
  cache.plan(make_problem(2, 3, 10, 3, 1, 1));
  cache.plan(make_problem(2, 3, 12, 3, 1, 1));  // differs in spatial only
  cache.plan(make_problem(2, 4, 10, 3, 1, 1));  // differs in out_c only
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(PlanCache, InsertOverridesTheTunedPlan) {
  gemm::ConvPlanCache cache(fast_tune());
  const gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  gemm::ConvPlan forced;
  forced.kind = ConvBackendKind::kWinograd;
  forced.tuned = false;
  cache.insert(p, forced);
  EXPECT_EQ(cache.plan(p).kind, ConvBackendKind::kWinograd);
  EXPECT_FALSE(cache.plan(p).tuned);
  // Per-phase insert only touches its phase.
  gemm::ConvPlan bwd;
  bwd.kind = ConvBackendKind::kIm2col;
  cache.insert(p, ConvPhase::kBackwardData, bwd);
  EXPECT_EQ(cache.lookup(p, ConvPhase::kBackwardData)->kind,
            ConvBackendKind::kIm2col);
  EXPECT_EQ(cache.lookup(p)->kind, ConvBackendKind::kWinograd);
  EXPECT_FALSE(cache.lookup(p, ConvPhase::kBackwardFilter).has_value());
}

TEST(PlanCache, DumpLoadDocumentRoundTrip) {
  gemm::ConvPlanCache cache(fast_tune());
  const gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  cache.plan(p, ConvPhase::kForward);
  cache.plan(p, ConvPhase::kBackwardData);
  const std::string doc = cache.dump();
  EXPECT_EQ(doc.find("parallel_ok"), std::string::npos);
  EXPECT_EQ(doc.find("\"batch\""), std::string::npos);

  gemm::ConvPlanCache fresh(fast_tune());
  fresh.load_document(doc, "test");
  EXPECT_EQ(fresh.size(), 2u);
  // Warm for exactly the (problem, phase) keys that were dumped.
  fresh.plan(p, ConvPhase::kForward);
  fresh.plan(p, ConvPhase::kBackwardData);
  EXPECT_EQ(fresh.misses(), 0u);
  EXPECT_EQ(fresh.hits(), 2u);
  EXPECT_FALSE(fresh.lookup(p, ConvPhase::kBackwardFilter).has_value());

  gemm::ConvPlanCache reject(fast_tune());
  EXPECT_THROW(reject.load_document("{\"format\": \"nope\"}", "test"),
               IoError);
  EXPECT_THROW(reject.load_document("not json at all", "test"), IoError);
  EXPECT_EQ(reject.size(), 0u);
}

TEST(PreparedForward, WinogradPrepMatchesPlainForwardBothTiles) {
  // Geometry pairs chosen so winograd_pick_tile selects F(2x2) (tiny
  // output grid) and F(4x4) (large grid); prepared and plain paths must
  // agree bit-for-bit — same transforms, just hoisted.
  for (const std::size_t hw : {5u, 12u}) {
    const gemm::ConvProblem p = make_problem(3, 4, hw, 3, 1, 1);
    const ConvOperands ops = random_operands(p, 0x5eedu + hw);
    const gemm::ConvBackend& wino =
        gemm::backend(ConvBackendKind::kWinograd);
    ASSERT_TRUE(wino.applicable(p));
    const std::size_t out_n = p.out_c * p.geom.lowered_cols();
    std::vector<float> plain(out_n, -1.0f), prepped(out_n, -2.0f);
    wino.forward(p, ops.image.data(), ops.weight.data(), ops.bias.data(),
                 plain.data());
    const std::unique_ptr<gemm::ConvPrep> prep =
        wino.prepare_forward(p, ops.weight.data());
    ASSERT_NE(prep, nullptr);
    wino.forward_prepared(p, prep.get(), ops.image.data(),
                          ops.weight.data(), ops.bias.data(), prepped.data());
    for (std::size_t i = 0; i < out_n; ++i) {
      EXPECT_EQ(plain[i], prepped[i]) << "element " << i << " hw " << hw;
    }
  }
}

// ---- plan cache persistence ------------------------------------------------

std::string temp_cache_path(const char* name) {
  return ::testing::TempDir() + "/pf15_" + name + "_" +
         std::to_string(::getpid()) + ".json";
}

TEST(PlanCachePersistence, SaveLoadRoundTripReproducesPlans) {
  const std::string path = temp_cache_path("roundtrip");
  gemm::ConvPlanCache cache(fast_tune());
  const gemm::ConvProblem a = make_problem(2, 3, 10, 3, 1, 1);
  const gemm::ConvProblem b = make_problem(4, 2, 9, 5, 2, 2);
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    cache.plan(a, phase);
    cache.plan(b, phase);
  }
  cache.save(path);

  gemm::ConvPlanCache fresh(fast_tune());
  fresh.load(path);
  EXPECT_EQ(fresh.size(), cache.size());
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    for (const auto& p : {a, b}) {
      const auto orig = cache.lookup(p, phase);
      const auto loaded = fresh.lookup(p, phase);
      ASSERT_TRUE(orig.has_value());
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(loaded->kind, orig->kind);
      EXPECT_NEAR(loaded->best_us, orig->best_us, 1e-6);
      EXPECT_NEAR(loaded->im2col_us, orig->im2col_us, 1e-6);
      EXPECT_EQ(loaded->tuned, orig->tuned);
    }
  }
  // A warm cache answers plan() without tuning: only hits, no misses.
  fresh.plan(a, ConvPhase::kBackwardData);
  EXPECT_EQ(fresh.misses(), 0u);
  EXPECT_EQ(fresh.hits(), 1u);
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, SaveMergesWithPlansAlreadyOnDisk) {
  // Two processes sharing a cache path must accumulate measurements, not
  // overwrite each other; untuned insert() overrides never reach disk
  // and never evict a tuned plan stored there.
  const std::string path = temp_cache_path("merge");
  const gemm::ConvProblem a = make_problem(2, 3, 10, 3, 1, 1);
  const gemm::ConvProblem b = make_problem(4, 2, 9, 5, 2, 2);

  gemm::ConvPlanCache first(fast_tune());
  first.plan(a);
  first.save(path);

  gemm::ConvPlanCache second(fast_tune());
  second.plan(b);  // never saw `a`
  gemm::ConvPlan forced;
  // A backend the first race did not pick, so a leaked override shows.
  forced.kind = first.lookup(a)->kind == ConvBackendKind::kWinograd
                    ? ConvBackendKind::kIm2col
                    : ConvBackendKind::kWinograd;
  forced.tuned = false;
  second.insert(a, forced);  // local override of `a`, not a measurement
  second.save(path);

  gemm::ConvPlanCache fresh(fast_tune());
  fresh.load(path);
  // `a` survived from the first process, `b` arrived from the second.
  ASSERT_TRUE(fresh.lookup(a).has_value());
  EXPECT_TRUE(fresh.lookup(a)->tuned);
  EXPECT_EQ(fresh.lookup(a)->kind, first.lookup(a)->kind);
  ASSERT_TRUE(fresh.lookup(b).has_value());
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, InapplicableStoredBackendIsRejected) {
  // A tampered file naming a backend that cannot run its problem must be
  // rejected at load: the kernels trust applicability (Winograd reads
  // the weight bank as 3x3), so dispatching it would corrupt memory.
  const std::string path = temp_cache_path("inapplicable");
  gemm::ConvPlanCache cache(fast_tune());
  cache.plan(make_problem(2, 3, 10, 5, 1, 2));  // 5x5: never Winograd
  cache.save(path);

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto pos = text.find("\"backend\": \"");
  ASSERT_NE(pos, std::string::npos);
  const auto end = text.find('"', pos + 12);
  text.replace(pos, end + 1 - pos, "\"backend\": \"winograd\"");
  {
    std::ofstream out(path);
    out << text;
  }
  gemm::ConvPlanCache fresh(fast_tune());
  EXPECT_THROW(fresh.load(path), IoError);
  EXPECT_EQ(fresh.size(), 0u);
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, DeeplyNestedFileIsRejectedNotACrash) {
  const std::string path = temp_cache_path("deep");
  {
    std::ofstream f(path);
    for (int i = 0; i < 100000; ++i) f << '[';
  }
  gemm::ConvPlanCache cache(fast_tune());
  EXPECT_THROW(cache.load(path), IoError);
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, CorruptFileIsRejectedWithIoError) {
  const std::string path = temp_cache_path("corrupt");
  {
    std::ofstream f(path);
    f << "{\"format\": \"pf15.conv_plan_cache\", \"version\": ";  // cut off
  }
  gemm::ConvPlanCache cache(fast_tune());
  EXPECT_THROW(cache.load(path), IoError);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, WrongFormatVersionAndHardwareAreRejected) {
  const std::string path = temp_cache_path("headers");
  gemm::ConvPlanCache cache(fast_tune());
  cache.plan(make_problem(2, 3, 10, 3, 1, 1));
  cache.save(path);

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  const auto write_variant = [&](const std::string& from,
                                 const std::string& to) {
    std::string variant = text;
    const auto pos = variant.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    variant.replace(pos, from.size(), to);
    std::ofstream out(path);
    out << variant;
  };

  gemm::ConvPlanCache fresh(fast_tune());
  write_variant("pf15.conv_plan_cache", "some.other.format");
  EXPECT_THROW(fresh.load(path), IoError);
  write_variant(
      "\"version\": " + std::to_string(gemm::kConvPlanCacheVersion),
      "\"version\": 999");
  EXPECT_THROW(fresh.load(path), IoError);
  write_variant("\"threads\": ", "\"threads\": 9999");
  EXPECT_THROW(fresh.load(path), IoError);
  EXPECT_EQ(fresh.size(), 0u);

  EXPECT_THROW(fresh.load(path + ".does_not_exist"), IoError);
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, MismatchedIsaSignatureIsRejected) {
  // Plans tuned under one SIMD tier are meaningless under another: the
  // scalar/AVX2 kernels have different crossover points. A cache written
  // on a machine with a different ISA must be rejected at load — the
  // caller (GlobalConvPlanCache) then re-tunes instead of erroring out.
  const std::string path = temp_cache_path("isa");
  gemm::ConvPlanCache cache(fast_tune());
  cache.plan(make_problem(2, 3, 10, 3, 1, 1));
  cache.save(path);

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string current = "\"isa\": \"" +
                              std::string(gemm::simd_isa_string()) + "\"";
  const auto pos = text.find(current);
  ASSERT_NE(pos, std::string::npos)
      << "saved cache must record the running ISA tier";
  text.replace(pos, current.size(), "\"isa\": \"sve512\"");
  {
    std::ofstream out(path);
    out << text;
  }
  gemm::ConvPlanCache fresh(fast_tune());
  EXPECT_THROW(fresh.load(path), IoError);
  EXPECT_EQ(fresh.size(), 0u);
  std::remove(path.c_str());
}

TEST(PlanCachePersistence, MalformedNumbersAreRejectedByName) {
  // Converting a negative, fractional or out-of-range double to an
  // integer type is undefined behaviour, so the loader must refuse such
  // numbers before any conversion, naming the field.
  gemm::ConvPlanCache cache(fast_tune());
  cache.plan(make_problem(2, 3, 10, 3, 1, 1));
  const std::string doc = cache.dump();
  const struct {
    const char* field;
    const char* value;
  } cases[] = {
      {"in_c", "-1"},  {"stride_h", "0"},     {"in_c", "1e300"},
      {"in_h", "8.5"}, {"best_us", "-5"},     {"version", "4.5"},
      {"im2col_us", "1e999"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.field) + " = " + c.value);
    const std::string key = "\"" + std::string(c.field) + "\": ";
    std::string bad = doc;
    const auto pos = bad.find(key);
    ASSERT_NE(pos, std::string::npos);
    const auto begin = pos + key.size();
    bad.replace(begin, bad.find_first_of(",\n}", begin) - begin, c.value);
    gemm::ConvPlanCache fresh(fast_tune());
    try {
      fresh.load_document(bad, "test");
      ADD_FAILURE() << "malformed document was accepted";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(c.field) + "'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(fresh.size(), 0u);
  }
  // Pads may be 0.
  std::string zero_pad = doc;
  const auto pos = zero_pad.find("\"pad_w\": 1");
  ASSERT_NE(pos, std::string::npos);
  zero_pad.replace(pos, 10, "\"pad_w\": 0");
  gemm::ConvPlanCache fresh(fast_tune());
  EXPECT_NO_THROW(fresh.load_document(zero_pad, "test"));
}

TEST(PlanCachePersistence, VersionThreeFileIsRejectedThenRetuned) {
  // Files written before the FFT backend was removed carry version 3 and
  // may name "fft". They fail the version check with a named IoError and
  // leave the cache empty, so the problem tunes again from scratch.
  const std::string path = temp_cache_path("v3");
  {
    std::ofstream out(path);
    out << "{\"format\": \"pf15.conv_plan_cache\", \"version\": 3, "
           "\"hardware\": {}, \"plans\": []}";
  }
  gemm::ConvPlanCache cache(fast_tune());
  try {
    cache.load(path);
    ADD_FAILURE() << "version-3 file was accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 3 != expected 6"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cache.size(), 0u);
  cache.plan(make_problem(2, 3, 10, 3, 1, 1));
  EXPECT_EQ(cache.misses(), 1u);
  std::remove(path.c_str());
}

/// A plan document written by hand the way a process at format `version`
/// wrote it: this host's hardware signature and one backward-data entry
/// for the decoder's dec_deconv4 problem naming `backend`. Writers before
/// version 6 also stored the execution mode and batch bucket.
std::string handwritten_decoder_plan(int version, const char* backend) {
  std::ostringstream doc;
  doc << "{\"format\": \"pf15.conv_plan_cache\", \"version\": " << version
      << ", \"hardware\": {\"threads\": "
      << std::thread::hardware_concurrency()
      << ", \"pointer_bits\": " << 8 * sizeof(void*) << ", \"isa\": \""
      << gemm::simd_isa_string() << "\"}, \"plans\": [{\"in_c\": 16, "
      << "\"in_h\": 32, \"in_w\": 32, \"kernel_h\": 6, \"kernel_w\": 6, "
      << "\"stride_h\": 2, \"stride_w\": 2, \"pad_h\": 2, \"pad_w\": 2, "
      << "\"out_c\": 32, \"phase\": \"backward_data\", "
      << (version < 6 ? "\"parallel_ok\": true, \"batch\": 8, " : "")
      << "\"backend\": \"" << backend
      << "\", \"best_us\": 100, \"im2col_us\": 100, \"tuned\": true}]}";
  return doc.str();
}

TEST(PlanCachePersistence, StaleFilesAreRejectedThenRetuned) {
  // Files tuned before the sub-pixel backend joined the race carry
  // version 4 and name im2col for the decoder's deconvolutions; version-5
  // files hold plans timed with backend fan-out, keyed by execution mode
  // and batch bucket. Both fail the version check. The direct-loop
  // backend left without a version bump, so a current-version file
  // naming it fails by name. Each file is rejected with a named IoError
  // and leaves the cache empty, so the problem tunes again serially among
  // the backends that remain.
  const gemm::ConvProblem decoder = make_problem(16, 32, 32, 6, 2, 2);
  const struct {
    int version;
    const char* backend;
    const char* error;
  } files[] = {
      {4, "im2col", "format version 4 != expected 6"},
      {5, "im2col", "format version 5 != expected 6"},
      {gemm::kConvPlanCacheVersion, "direct", "unknown backend 'direct'"},
  };
  for (const auto& f : files) {
    SCOPED_TRACE(f.error);
    const std::string path = temp_cache_path("stale");
    {
      std::ofstream out(path);
      out << handwritten_decoder_plan(f.version, f.backend);
    }
    gemm::ConvPlanCache cache(fast_tune());
    try {
      cache.load(path);
      ADD_FAILURE() << "stale file was accepted";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(f.error), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cache.size(), 0u);
    cache.plan(decoder, ConvPhase::kBackwardData);
    EXPECT_EQ(cache.misses(), 1u);
    std::remove(path.c_str());
  }
  // The version or the backend name is the only defect: the same entry at
  // the current version naming im2col loads.
  gemm::ConvPlanCache current(fast_tune());
  current.load_document(
      handwritten_decoder_plan(gemm::kConvPlanCacheVersion, "im2col"),
      "test");
  EXPECT_EQ(current.size(), 1u);
}

TEST(PlanCachePersistence, SubpixelNamedForAProblemItCannotRunIsRejected) {
  // The loader's applicability check covers the new backend: sub-pixel
  // named for a stride-1 problem is corrupt, not a plan to dispatch.
  gemm::ConvPlanCache cache(fast_tune());
  cache.plan(make_problem(2, 3, 10, 3, 1, 1));
  std::string doc = cache.dump();
  const auto pos = doc.find("\"backend\": \"");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, doc.find('"', pos + 12) + 1 - pos,
              "\"backend\": \"subpixel\"");
  gemm::ConvPlanCache fresh(fast_tune());
  try {
    fresh.load_document(doc, "test");
    ADD_FAILURE() << "sub-pixel on a stride-1 problem was accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "backend 'subpixel' not applicable to stored problem"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh.size(), 0u);
  // Named for a decoder problem it loads.
  fresh.load_document(
      handwritten_decoder_plan(gemm::kConvPlanCacheVersion, "subpixel"),
      "test");
  EXPECT_EQ(fresh.size(), 1u);
}

// ---- Conv2d dispatch -------------------------------------------------------

nn::Conv2dConfig conv_config(std::size_t in_c, std::size_t out_c,
                             std::size_t kernel, std::size_t stride,
                             std::size_t pad, nn::ConvAlgo algo) {
  nn::Conv2dConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  cfg.kernel = kernel;
  cfg.stride = stride;
  cfg.pad = pad;
  cfg.bias = true;
  cfg.algo = algo;
  return cfg;
}

TEST(Conv2dDispatch, EveryForcedBackendMatchesIm2colThroughSequential) {
  const Shape in_shape{3, 2, 12, 12};
  Rng data_rng(11);
  Tensor input(in_shape);
  input.fill_uniform(data_rng, -1.0f, 1.0f);

  auto build = [&](nn::ConvAlgo algo) {
    Rng rng(42);  // same seed -> identical weights across variants
    nn::Sequential net;
    net.add(std::make_unique<nn::Conv2d>(
        "c1", conv_config(2, 5, 3, 1, 1, algo), rng));
    net.add(std::make_unique<nn::ReLU>("r1"));
    net.add(std::make_unique<nn::Conv2d>(
        "c2", conv_config(5, 4, 3, 1, 1, algo), rng));
    return net;
  };

  nn::Sequential reference = build(nn::ConvAlgo::kIm2col);
  const Tensor& ref_out = reference.forward(input);
  for (auto algo : {nn::ConvAlgo::kWinograd, nn::ConvAlgo::kAuto}) {
    nn::Sequential net = build(algo);
    const Tensor& out = net.forward(input);
    ASSERT_EQ(out.shape(), ref_out.shape());
    for (std::size_t i = 0; i < out.numel(); ++i) {
      ASSERT_NEAR(out.data()[i], ref_out.data()[i], 1e-4f)
          << "algo " << static_cast<int>(algo) << " element " << i;
    }
  }
}

TEST(Conv2dDispatch, ForcedBackendsReportThemselvesEveryPhase) {
  const Shape in_shape{2, 2, 10, 10};
  Rng data_rng(5);
  Tensor input(in_shape), out, din;
  input.fill_uniform(data_rng, -1.0f, 1.0f);
  const struct {
    nn::ConvAlgo algo;
    ConvBackendKind kind;
  } cases[] = {
      {nn::ConvAlgo::kIm2col, ConvBackendKind::kIm2col},
      {nn::ConvAlgo::kWinograd, ConvBackendKind::kWinograd},
  };
  for (const auto& c : cases) {
    Rng rng(7);
    nn::Conv2d conv("c", conv_config(2, 3, 3, 1, 1, c.algo), rng);
    EXPECT_EQ(conv.forward_backend(in_shape), c.kind);
    conv.forward(input, out);
    EXPECT_EQ(conv.last_forward_backend(), c.kind);
    // Backward dispatches per phase; at pad 1 every forced backend
    // covers both gradient phases.
    EXPECT_EQ(conv.backward_backend(in_shape, ConvPhase::kBackwardData),
              c.kind);
    EXPECT_EQ(conv.backward_backend(in_shape, ConvPhase::kBackwardFilter),
              c.kind);
    Tensor dout(out.shape());
    dout.fill_uniform(rng, -1.0f, 1.0f);
    conv.backward(input, dout, din);
    EXPECT_EQ(conv.last_backward_data_backend(), c.kind);
    EXPECT_EQ(conv.last_backward_filter_backend(), c.kind);
  }
}

TEST(Conv2dDispatch, AutoResolvesThroughGlobalPlanCachePerPhase) {
  Rng rng(7);
  nn::Conv2d conv("c", conv_config(2, 3, 3, 1, 1, nn::ConvAlgo::kAuto), rng);
  const Shape in_shape{1, 2, 10, 10};
  gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  // Pre-seed the cache so the test controls the plans instead of timing —
  // a different backend per phase proves the phases dispatch separately.
  gemm::ConvPlan fwd;
  fwd.kind = ConvBackendKind::kWinograd;
  gemm::ConvPlanCache::global().insert(p, ConvPhase::kForward, fwd);
  gemm::ConvPlan bwd_data;
  bwd_data.kind = ConvBackendKind::kIm2col;
  gemm::ConvPlanCache::global().insert(p, ConvPhase::kBackwardData,
                                       bwd_data);
  gemm::ConvPlan bwd_filter;
  bwd_filter.kind = ConvBackendKind::kWinograd;
  gemm::ConvPlanCache::global().insert(p, ConvPhase::kBackwardFilter,
                                       bwd_filter);

  EXPECT_EQ(conv.forward_backend(in_shape), ConvBackendKind::kWinograd);
  Tensor input(in_shape), out, din;
  input.fill_uniform(rng, -1.0f, 1.0f);
  conv.forward(input, out);
  EXPECT_EQ(conv.last_forward_backend(), ConvBackendKind::kWinograd);
  Tensor dout(out.shape());
  dout.fill_uniform(rng, -1.0f, 1.0f);
  conv.backward(input, dout, din);
  EXPECT_EQ(conv.last_backward_data_backend(), ConvBackendKind::kIm2col);
  EXPECT_EQ(conv.last_backward_filter_backend(), ConvBackendKind::kWinograd);
  // flops follow the dispatched backends.
  EXPECT_EQ(conv.forward_flops(in_shape),
            gemm::backend(ConvBackendKind::kWinograd).flops(p) +
                p.geom.lowered_cols() * p.out_c);
  EXPECT_EQ(conv.backward_flops(in_shape),
            gemm::backend(ConvBackendKind::kIm2col)
                    .flops(p, ConvPhase::kBackwardData) +
                gemm::backend(ConvBackendKind::kWinograd)
                    .flops(p, ConvPhase::kBackwardFilter) +
                p.geom.lowered_cols() * p.out_c);
}

TEST(Conv2dDispatch, ForcedWinogradOnBadGeometryIsRefused) {
  Rng rng(7);
  PF15_EXPECT_CHECK_FAIL(
      nn::Conv2d("c", conv_config(2, 3, 5, 1, 2, nn::ConvAlgo::kWinograd),
                 rng),
      "Winograd requires 3x3 stride-1");
}

TEST(Conv2dDispatch, SubpixelGradientCheck) {
  const testing::PinnedConvPlans pin(make_problem(2, 3, 8, 6, 2, 2),
                                     ConvBackendKind::kSubpixel);
  Rng rng(35);
  nn::Conv2d conv("c", conv_config(2, 3, 6, 2, 2, nn::ConvAlgo::kAuto), rng);
  Tensor input(Shape{2, 2, 8, 8});
  input.fill_uniform(rng, -1.0f, 1.0f);
  ASSERT_EQ(conv.forward_backend(input.shape()), ConvBackendKind::kSubpixel);
  ASSERT_EQ(conv.backward_backend(input.shape(), ConvPhase::kBackwardData),
            ConvBackendKind::kSubpixel);
  ASSERT_EQ(conv.backward_backend(input.shape(), ConvPhase::kBackwardFilter),
            ConvBackendKind::kSubpixel);
  testing::check_layer_gradients(conv, input);
}

TEST(Conv2dDispatch, BatchParallelForwardMatchesPerImageForward) {
  // The batch > 1 path fans images across the thread pool; it must be
  // bit-identical to serial single-image forwards of the same layer.
  Rng rng(21);
  nn::Conv2d conv("c", conv_config(3, 6, 3, 1, 1, nn::ConvAlgo::kIm2col),
                  rng);
  const std::size_t n = 9;
  Tensor batch(Shape{n, 3, 13, 13});
  batch.fill_uniform(rng, -1.0f, 1.0f);
  Tensor batched_out;
  conv.forward(batch, batched_out);

  const std::size_t in_img = 3 * 13 * 13;
  Tensor one(Shape{1, 3, 13, 13}), one_out;
  const std::size_t out_img = batched_out.numel() / n;
  for (std::size_t img = 0; img < n; ++img) {
    std::copy(batch.data() + img * in_img,
              batch.data() + (img + 1) * in_img, one.data());
    conv.forward(one, one_out);
    for (std::size_t i = 0; i < out_img; ++i) {
      ASSERT_EQ(one_out.data()[i], batched_out.data()[img * out_img + i])
          << "image " << img << " element " << i;
    }
  }
}

TEST(Conv2dDispatch, BatchParallelBackwardMatchesPerImageBackward) {
  // Same bit-identity requirement for the batch-parallel data-gradient
  // pass and the serial filter accumulation.
  Rng rng(23);
  nn::Conv2d conv("c", conv_config(2, 4, 3, 1, 1, nn::ConvAlgo::kWinograd),
                  rng);
  const std::size_t n = 7;
  Tensor batch(Shape{n, 2, 11, 11});
  batch.fill_uniform(rng, -1.0f, 1.0f);
  Tensor out;
  conv.forward(batch, out);
  Tensor dout(out.shape());
  dout.fill_uniform(rng, -1.0f, 1.0f);
  Tensor batched_din;
  conv.backward(batch, dout, batched_din);

  const std::size_t in_img = 2 * 11 * 11;
  const std::size_t out_img = out.numel() / n;
  Tensor one(Shape{1, 2, 11, 11}), one_dout(Shape{1, 4, 11, 11}), one_din;
  for (std::size_t img = 0; img < n; ++img) {
    std::copy(batch.data() + img * in_img,
              batch.data() + (img + 1) * in_img, one.data());
    std::copy(dout.data() + img * out_img,
              dout.data() + (img + 1) * out_img, one_dout.data());
    conv.backward(one, one_dout, one_din);
    for (std::size_t i = 0; i < in_img; ++i) {
      ASSERT_EQ(one_din.data()[i], batched_din.data()[img * in_img + i])
          << "image " << img << " element " << i;
    }
  }
}

// ---- gradient checks through the dispatched backward -----------------------

struct GradientCase {
  std::size_t hw, pad;
  nn::ConvAlgo algo;
};

class DispatchGradient : public ::testing::TestWithParam<GradientCase> {};

TEST_P(DispatchGradient, LayerGradientsAreExact) {
  const auto c = GetParam();
  Rng rng(31 + c.hw + c.pad);
  nn::Conv2d conv("c", conv_config(2, 3, 3, 1, c.pad, c.algo), rng);
  Tensor input(Shape{2, 2, c.hw, c.hw});
  input.fill_uniform(rng, -1.0f, 1.0f);
  // Convolution is multilinear in (input, weight, bias), so the central
  // difference has zero truncation error and a larger eps only dilutes
  // fp32 rounding noise — which matters for the F(4x4) transforms, whose
  // constants amplify rounding slightly over the GEMM reference path.
  testing::GradCheckOptions opt;
  opt.eps = 4e-2f;
  opt.abs_floor = 2e-3f;
  testing::check_layer_gradients(conv, input, opt);
}

// Odd/even spatial sizes and pads 0/1 for the Winograd backward kernels.
// The spatial size also selects the Winograd tile: out < 6 runs
// F(2x2,3x3), out >= 6 runs F(4x4,3x3), so both tiles get a full
// layer-level gradient check.
INSTANTIATE_TEST_SUITE_P(
    Winograd, DispatchGradient,
    ::testing::Values(GradientCase{5, 0, nn::ConvAlgo::kWinograd},   // F2x2
                      GradientCase{6, 1, nn::ConvAlgo::kWinograd},   // F4x4
                      GradientCase{8, 0, nn::ConvAlgo::kWinograd},   // F4x4
                      GradientCase{9, 1, nn::ConvAlgo::kWinograd})); // odd

// ---- Deconv2d through the shared dispatch ----------------------------------

nn::Deconv2dConfig deconv_config(std::size_t in_c, std::size_t out_c,
                                 std::size_t kernel, std::size_t stride,
                                 std::size_t pad, nn::ConvAlgo algo) {
  nn::Deconv2dConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  cfg.kernel = kernel;
  cfg.stride = stride;
  cfg.pad = pad;
  cfg.bias = true;
  cfg.algo = algo;
  return cfg;
}

TEST(Deconv2dDispatch, PinnedSubpixelMatchesIm2colForward) {
  // The climate decoder's 6x6/2 pad 2 with sub-pixel pinned in the plan
  // cache under kAuto, since it has no forcing value. The underlying
  // convolution maps the 10 px deconv output (2 channels) onto its 5 px
  // input (3 channels).
  const Shape in_shape{2, 3, 5, 5};
  Rng data_rng(17);
  Tensor input(in_shape);
  input.fill_uniform(data_rng, -1.0f, 1.0f);
  const auto build = [](nn::ConvAlgo algo) {
    Rng rng(55);
    return nn::Deconv2d("d", deconv_config(3, 2, 6, 2, 2, algo), rng);
  };
  nn::Deconv2d reference = build(nn::ConvAlgo::kIm2col);
  Tensor ref_out;
  reference.forward(input, ref_out);
  const testing::PinnedConvPlans pin(make_problem(2, 3, 10, 6, 2, 2),
                                     ConvBackendKind::kSubpixel);
  nn::Deconv2d deconv = build(nn::ConvAlgo::kAuto);
  // The layer's forward is the convolution's backward-data phase.
  EXPECT_EQ(deconv.phase_backend(in_shape, ConvPhase::kBackwardData),
            ConvBackendKind::kSubpixel);
  Tensor out;
  deconv.forward(input, out);
  ASSERT_EQ(out.shape(), ref_out.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    ASSERT_NEAR(out.data()[i], ref_out.data()[i], 1e-4f) << "element " << i;
  }
}

TEST(Deconv2dDispatch, ForcedWinogradOnBadGeometryIsRefused) {
  // Same construction-time contract as Conv2d: an impossible forced
  // backend is an error, not a silent downgrade to im2col.
  Rng rng(19);
  nn::Deconv2dConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 3;
  cfg.kernel = 3;
  cfg.stride = 2;
  cfg.pad = 1;
  cfg.algo = nn::ConvAlgo::kWinograd;
  PF15_EXPECT_CHECK_FAIL(nn::Deconv2d("d", cfg, rng),
                         "Winograd requires 3x3 stride-1");
}

TEST(Deconv2dDispatch, GradientCheckAtStride2) {
  // Stride-2 deconvolution must keep exact gradients through the shared
  // backend dispatch: a 3x3/2 pad-1 kernel, and the climate decoder's
  // 6x6/2 pad-2 kernel, where sub-pixel races too (pinned in the plan
  // cache under kAuto, since it has no forcing value).
  const struct {
    std::size_t kernel, pad;
    std::vector<nn::ConvAlgo> algos;
  } cases[] = {
      {3, 1, {nn::ConvAlgo::kIm2col}},
      {6, 2, {nn::ConvAlgo::kIm2col, nn::ConvAlgo::kAuto}},
  };
  for (const auto& c : cases) {
    for (const nn::ConvAlgo algo : c.algos) {
      SCOPED_TRACE("kernel " + std::to_string(c.kernel) + " algo " +
                   std::to_string(static_cast<int>(algo)));
      // The underlying convolution maps the 8 px deconv output (3
      // channels) onto its 4 px input (2 channels).
      std::optional<testing::PinnedConvPlans> pin;
      if (algo == nn::ConvAlgo::kAuto) {
        pin.emplace(make_problem(3, 2, 8, c.kernel, 2, c.pad),
                    ConvBackendKind::kSubpixel);
      }
      Rng rng(61);
      nn::Deconv2d deconv("d", deconv_config(2, 3, c.kernel, 2, c.pad, algo),
                          rng);
      Tensor input(Shape{2, 2, 4, 4});
      input.fill_uniform(rng, -1.0f, 1.0f);
      if (algo == nn::ConvAlgo::kAuto) {
        for (const ConvPhase phase : gemm::kAllConvPhases) {
          ASSERT_EQ(deconv.phase_backend(input.shape(), phase),
                    ConvBackendKind::kSubpixel);
        }
      }
      testing::check_layer_gradients(deconv, input);
    }
  }
}

TEST(Deconv2dDispatch, Stride1WinogradPathGradientCheck) {
  // At stride 1 with a 3x3 kernel the underlying conv is
  // Winograd-eligible in every phase; force it end to end.
  Rng rng(63);
  nn::Deconv2dConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 3;
  cfg.kernel = 3;
  cfg.stride = 1;
  cfg.pad = 1;
  cfg.bias = true;
  cfg.algo = nn::ConvAlgo::kWinograd;
  nn::Deconv2d deconv("d", cfg, rng);
  EXPECT_EQ(deconv.phase_backend(Shape{1, 2, 6, 6}, ConvPhase::kBackwardData),
            ConvBackendKind::kWinograd);
  Tensor input(Shape{2, 2, 6, 6});
  input.fill_uniform(rng, -1.0f, 1.0f);
  testing::check_layer_gradients(deconv, input);
}

// ---- tune::Space adapter ---------------------------------------------------

TEST(ConvSpace, EncodesApplicableBackendsPerPhase) {
  const gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  // The space encodes exactly the backends autotune races, per phase.
  const gemm::ConvProblem decoder = make_problem(16, 32, 32, 6, 2, 2);
  for (const gemm::ConvProblem& prob :
       {p, make_problem(2, 3, 10, 3, 1, 3), make_problem(2, 3, 9, 5, 2, 2),
        decoder}) {
    for (const ConvPhase phase : gemm::kAllConvPhases) {
      const tune::Space space = tune::conv_backend_space(prob, phase);
      ASSERT_EQ(space.size(), 1u);
      const auto& dim = space.dimensions()[0];
      EXPECT_EQ(dim.name, tune::kConvBackendDim);
      const auto racers = gemm::applicable_backends(prob, phase);
      ASSERT_EQ(dim.choices.size(), racers.size());
      for (std::size_t i = 0; i < racers.size(); ++i) {
        tune::Config config{{tune::kConvBackendDim, dim.choices[i]}};
        EXPECT_EQ(tune::decode_backend(config), racers[i]->kind());
      }
    }
  }
  // 3x3 stride-1 forward: im2col, winograd.
  EXPECT_EQ(tune::conv_backend_space(p).dimensions()[0].choices.size(), 2u);
  // The decoder's 6x6/2 pad 2, every phase: im2col, subpixel.
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    const tune::Space space = tune::conv_backend_space(decoder, phase);
    const auto& choices = space.dimensions()[0].choices;
    ASSERT_EQ(choices.size(), 2u);
    const auto subpixel = static_cast<int>(ConvBackendKind::kSubpixel);
    EXPECT_EQ(choices.back(), static_cast<double>(subpixel));
  }
}

TEST(ConvSpace, DecodeRejectsCodesOfNoRegisteredBackend) {
  // Codes 2 and 3 are retired; they must not pass the range check into
  // backend().
  for (double code : {2.0, 3.0, -1.0, 5.0}) {
    tune::Config config{{tune::kConvBackendDim, code}};
    PF15_EXPECT_CHECK_FAIL(tune::decode_backend(config),
                           "names no registered backend");
  }
}

TEST(ConvSpace, GridSearchFindsWinnerAndInstallsPlanPerPhase) {
  const gemm::ConvProblem p = make_problem(2, 3, 10, 3, 1, 1);
  gemm::ConvPlanCache cache(fast_tune());
  for (const ConvPhase phase : gemm::kAllConvPhases) {
    const gemm::ConvPlan plan =
        tune::tune_conv_backend(p, cache, fast_tune(), phase);
    EXPECT_TRUE(plan.tuned);
    EXPECT_LE(plan.best_us, plan.im2col_us);
    ASSERT_TRUE(cache.lookup(p, phase).has_value());
    EXPECT_EQ(cache.lookup(p, phase)->kind, plan.kind);
  }
  // insert() pins one override per phase; each override covers every
  // execution mode and batch bucket of its (problem, phase).
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace pf15
