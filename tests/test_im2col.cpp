// im2col / col2im: geometry, padding, strides, adjointness, and bit-exact
// agreement with the original per-element loops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gemm/im2col.hpp"

namespace pf15::gemm {
namespace {

TEST(ConvGeom, OutputSizes) {
  ConvGeom g;
  g.in_c = 3;
  g.in_h = g.in_w = 224;
  g.kernel_h = g.kernel_w = 3;
  g.stride_h = g.stride_w = 1;
  g.pad_h = g.pad_w = 1;
  EXPECT_EQ(g.out_h(), 224u);
  EXPECT_EQ(g.out_w(), 224u);
  EXPECT_EQ(g.lowered_rows(), 27u);
  EXPECT_EQ(g.lowered_cols(), 224u * 224u);
}

TEST(ConvGeom, StridedOutput) {
  ConvGeom g;
  g.in_c = 16;
  g.in_h = g.in_w = 768;
  g.kernel_h = g.kernel_w = 5;
  g.stride_h = g.stride_w = 2;
  g.pad_h = g.pad_w = 2;
  EXPECT_EQ(g.out_h(), 384u);
  EXPECT_EQ(g.out_w(), 384u);
}

TEST(Im2col, IdentityKernelCopiesChannels) {
  // 1x1 kernel, stride 1, no pad: col equals the image.
  ConvGeom g;
  g.in_c = 2;
  g.in_h = g.in_w = 4;
  g.kernel_h = g.kernel_w = 1;
  std::vector<float> image(2 * 16);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i);
  }
  std::vector<float> col(g.lowered_rows() * g.lowered_cols(), -1.0f);
  im2col(g, image.data(), col.data());
  for (std::size_t i = 0; i < image.size(); ++i) {
    EXPECT_FLOAT_EQ(col[i], image[i]);
  }
}

TEST(Im2col, PaddingProducesZeros) {
  ConvGeom g;
  g.in_c = 1;
  g.in_h = g.in_w = 2;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  std::vector<float> image{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> col(g.lowered_rows() * g.lowered_cols(), -1.0f);
  im2col(g, image.data(), col.data());
  // Tap (kh=0, kw=0) at output (0,0) reads input (-1,-1): zero.
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  // Tap (kh=1, kw=1) (center) at output (0,0) reads input (0,0): 1.
  const std::size_t center_row = 1 * 3 + 1;
  EXPECT_FLOAT_EQ(col[center_row * 4 + 0], 1.0f);
}

TEST(Im2col, ExplicitSmallCase) {
  // 3x3 input, 2x2 kernel, stride 1: 2x2 output, 4 rows.
  ConvGeom g;
  g.in_c = 1;
  g.in_h = g.in_w = 3;
  g.kernel_h = g.kernel_w = 2;
  std::vector<float> image{0, 1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> col(4 * 4);
  im2col(g, image.data(), col.data());
  // Row 0 (tap 0,0): inputs at (y, x): (0,0),(0,1),(1,0),(1,1).
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  EXPECT_FLOAT_EQ(col[1], 1.0f);
  EXPECT_FLOAT_EQ(col[2], 3.0f);
  EXPECT_FLOAT_EQ(col[3], 4.0f);
  // Row 3 (tap 1,1): (1,1),(1,2),(2,1),(2,2).
  EXPECT_FLOAT_EQ(col[12], 4.0f);
  EXPECT_FLOAT_EQ(col[13], 5.0f);
  EXPECT_FLOAT_EQ(col[14], 7.0f);
  EXPECT_FLOAT_EQ(col[15], 8.0f);
}

struct GeomCase {
  std::size_t c, h, w, k, s, p;
};

class Im2colAdjoint : public ::testing::TestWithParam<GeomCase> {};

// col2im must be the exact adjoint of im2col:
// <im2col(x), y> == <x, col2im(y)> for all x, y.
TEST_P(Im2colAdjoint, AdjointIdentity) {
  const GeomCase gc = GetParam();
  ConvGeom g;
  g.in_c = gc.c;
  g.in_h = gc.h;
  g.in_w = gc.w;
  g.kernel_h = g.kernel_w = gc.k;
  g.stride_h = g.stride_w = gc.s;
  g.pad_h = g.pad_w = gc.p;
  ASSERT_GE(g.in_h + 2 * g.pad_h, g.kernel_h);

  Rng rng(55);
  const std::size_t image_n = g.in_c * g.in_h * g.in_w;
  const std::size_t col_n = g.lowered_rows() * g.lowered_cols();
  std::vector<float> x(image_n), y(col_n), col(col_n),
      img_back(image_n, 0.0f);
  for (auto& v : x) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : y) v = rng.uniform(-1.0f, 1.0f);

  im2col(g, x.data(), col.data());
  col2im(g, y.data(), img_back.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_n; ++i) {
    lhs += static_cast<double>(col[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < image_n; ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(img_back[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Im2colAdjoint,
    ::testing::Values(GeomCase{1, 5, 5, 3, 1, 0}, GeomCase{1, 5, 5, 3, 1, 1},
                      GeomCase{2, 8, 8, 3, 2, 1}, GeomCase{3, 9, 7, 5, 2, 2},
                      GeomCase{4, 6, 6, 2, 2, 0}, GeomCase{2, 12, 12, 6, 2, 2},
                      GeomCase{1, 4, 4, 4, 4, 0},
                      GeomCase{5, 10, 10, 1, 1, 0}));

TEST(Col2im, AccumulatesOverlaps) {
  // 3x3 input, 2x2 kernel stride 1: center pixel (1,1) is touched by all
  // four taps across four output positions... actually by 4 (tap, output)
  // combinations. With all-ones col, center value = number of taps
  // covering it = 4.
  ConvGeom g;
  g.in_c = 1;
  g.in_h = g.in_w = 3;
  g.kernel_h = g.kernel_w = 2;
  std::vector<float> col(4 * 4, 1.0f);
  std::vector<float> img(9, 0.0f);
  col2im(g, col.data(), img.data());
  EXPECT_FLOAT_EQ(img[4], 4.0f);  // center
  EXPECT_FLOAT_EQ(img[0], 1.0f);  // corner touched once
}

// ---- Bit-exactness against the original loops ---------------------------

// The per-element bounds-checked loops the row kernels replaced, frozen
// here as the reference.
void reference_im2col(const ConvGeom& g, const float* image, float* col) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t plane = g.in_h * g.in_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    const float* src_plane = image + c * plane;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * (oh * ow);
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride_h + kh) -
              static_cast<std::ptrdiff_t>(g.pad_h);
          float* dst_row = dst + y * ow;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::memset(dst_row, 0, ow * sizeof(float));
            continue;
          }
          const float* src_row = src_plane + static_cast<std::size_t>(iy) *
                                                 g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride_w + kw) -
                static_cast<std::ptrdiff_t>(g.pad_w);
            dst_row[x] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                    ? 0.0f
                    : src_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void reference_col2im(const ConvGeom& g, const float* col, float* image) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t plane = g.in_h * g.in_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    float* dst_plane = image + c * plane;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * (oh * ow);
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride_h + kh) -
              static_cast<std::ptrdiff_t>(g.pad_h);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* dst_row = dst_plane + static_cast<std::size_t>(iy) * g.in_w;
          const float* src_row = src + y * ow;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride_w + kw) -
                static_cast<std::ptrdiff_t>(g.pad_w);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            dst_row[static_cast<std::size_t>(ix)] += src_row[x];
          }
        }
      }
    }
  }
}

struct Geom2 {
  std::size_t c, ih, iw, kh, kw, sh, sw, ph, pw;
};

ConvGeom make_geom(const Geom2& t) {
  ConvGeom g;
  g.in_c = t.c;
  g.in_h = t.ih;
  g.in_w = t.iw;
  g.kernel_h = t.kh;
  g.kernel_w = t.kw;
  g.stride_h = t.sh;
  g.stride_w = t.sw;
  g.pad_h = t.ph;
  g.pad_w = t.pw;
  return g;
}

std::string describe(const ConvGeom& g) {
  return std::to_string(g.in_c) + "x" + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " k" + std::to_string(g.kernel_h) + "x" +
         std::to_string(g.kernel_w) + " s" + std::to_string(g.stride_h) +
         "x" + std::to_string(g.stride_w) + " p" + std::to_string(g.pad_h) +
         "x" + std::to_string(g.pad_w);
}

/// Random values with ±0, NaN and ±inf sprinkled in.
std::vector<float> special_values(std::size_t n, Rng& rng) {
  const float specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float u = rng.uniform(0.0f, 1.0f);
    v[i] = u < 0.05f ? specials[i % 5] : rng.uniform(-4.0f, 4.0f);
  }
  return v;
}

/// Bitwise equality, except that any NaN matches any NaN: when two NaNs
/// meet in a sum, which payload survives is the hardware's choice.
::testing::AssertionResult same_bits(const std::vector<float>& want,
                                     const std::vector<float>& got) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    if (std::memcmp(&want[i], &got[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": want " << want[i] << ", got " << got[i];
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_bit_exact(const ConvGeom& g, std::uint64_t seed) {
  SCOPED_TRACE(describe(g));
  ASSERT_GE(g.in_h + 2 * g.pad_h, g.kernel_h);
  ASSERT_GE(g.in_w + 2 * g.pad_w, g.kernel_w);
  Rng rng(seed);
  const std::size_t image_n = g.in_c * g.in_h * g.in_w;
  const std::size_t col_n = g.lowered_rows() * g.lowered_cols();
  const auto image = special_values(image_n, rng);
  // Different fill values: an element the kernel forgets to write shows.
  std::vector<float> want(col_n, 1.0f);
  std::vector<float> got(col_n, std::numeric_limits<float>::quiet_NaN());
  reference_im2col(g, image.data(), want.data());
  im2col(g, image.data(), got.data());
  EXPECT_TRUE(same_bits(want, got)) << "im2col";

  // col2im adds onto whatever the image holds.
  const auto col = special_values(col_n, rng);
  std::vector<float> acc_want = special_values(image_n, rng);
  std::vector<float> acc_got = acc_want;
  reference_col2im(g, col.data(), acc_want.data());
  col2im(g, col.data(), acc_got.data());
  EXPECT_TRUE(same_bits(acc_want, acc_got)) << "col2im";
}

// Every lowering geometry of the benchmarked nets (channel counts cut
// down; the loops do not depend on them beyond repetition).
TEST(Im2colBitExact, WorkloadGeometries) {
  std::vector<Geom2> cases;
  // HEP: 3x3, stride 1, pad 1 at every pooled size.
  for (std::size_t px : {64, 32, 16, 8, 4, 2}) {
    cases.push_back({px >= 32 ? 3u : 7u, px, px, 3, 3, 1, 1, 1, 1});
  }
  // Climate encoder (5x5) and decoder deconvs (6x6), stride 2, pad 2.
  for (std::size_t k : {5, 6}) {
    for (std::size_t px : {64, 32, 16, 8, 4}) {
      cases.push_back({px >= 32 ? 2u : 5u, px, px, k, k, 2, 2, 2, 2});
    }
  }
  // Climate heads: 3x3 at 2 px, wide input.
  cases.push_back({80, 2, 2, 3, 3, 1, 1, 1, 1});
  std::uint64_t seed = 1;
  for (const Geom2& t : cases) expect_bit_exact(make_geom(t), seed++);
}

// Strides 1-3, kernels 1-6, pads 0 to kernel + 1, on narrow, mid and wide
// rows (wide stride-2 rows take the parity-pair pass).
TEST(Im2colBitExact, StrideKernelPadSweep) {
  std::uint64_t seed = 100;
  for (std::size_t s = 1; s <= 3; ++s) {
    for (std::size_t k = 1; k <= 6; ++k) {
      for (std::size_t p = 0; p <= k + 1; ++p) {
        for (std::size_t w : {5, 9, 70}) {
          for (std::size_t h : {5, 8}) {
            if (h + 2 * p < k || w + 2 * p < k) continue;
            expect_bit_exact(make_geom({2, h, w, k, k, s, s, p, p}), seed++);
          }
        }
      }
    }
  }
}

// Height and width differing in input, kernel, stride and pad; kernels as
// large as the padded input; 1x1 kernels.
TEST(Im2colBitExact, AnisotropicAndEdgeGeometries) {
  const Geom2 cases[] = {
      {3, 10, 17, 3, 5, 1, 2, 1, 2},  {2, 40, 70, 5, 6, 2, 2, 2, 2},
      {2, 9, 12, 4, 2, 3, 1, 0, 1},   {2, 8, 72, 3, 7, 2, 2, 1, 3},
      {2, 7, 66, 2, 4, 1, 2, 0, 0},   {2, 20, 60, 3, 3, 3, 3, 1, 1},
      {2, 6, 75, 6, 5, 2, 2, 0, 4},   {3, 3, 3, 5, 5, 1, 1, 1, 1},
      {2, 4, 6, 6, 8, 2, 3, 1, 1},    {2, 1, 1, 3, 3, 1, 1, 1, 1},
      {2, 2, 9, 6, 9, 2, 2, 2, 0},    {4, 8, 8, 1, 1, 1, 1, 0, 0},
      {3, 9, 7, 1, 1, 2, 2, 0, 0},    {2, 5, 5, 1, 1, 1, 1, 1, 1},
      {2, 5, 70, 1, 1, 1, 2, 0, 1},
  };
  std::uint64_t seed = 5000;
  for (const Geom2& t : cases) expect_bit_exact(make_geom(t), seed++);
}

}  // namespace
}  // namespace pf15::gemm
