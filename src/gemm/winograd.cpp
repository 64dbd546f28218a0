#include "gemm/winograd.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/errors.hpp"
#include "gemm/gemm.hpp"
#include "gemm/scratch.hpp"
#include "gemm/simd.hpp"

namespace pf15::gemm {

const char* to_string(WinogradTile tile) {
  switch (tile) {
    case WinogradTile::kF2x2:
      return "f2x2";
    case WinogradTile::kF4x4:
      return "f4x4";
  }
  return "unknown";
}

bool winograd_applicable(std::size_t kernel, std::size_t stride) {
  return kernel == 3 && stride == 1;
}

WinogradTile winograd_pick_tile(std::size_t out_h, std::size_t out_w) {
  // F(4x4) quadruples the per-tile output, so ragged edges waste more of
  // the grid; only switch once the output comfortably fills 4x4 tiles.
  return (out_h >= 6 && out_w >= 6) ? WinogradTile::kF4x4
                                    : WinogradTile::kF2x2;
}

namespace {

// Transforms process kWinoBlock tiles at once in structure-of-arrays
// layout: element (pos, lane) lives at [pos * kWinoBlock + lane]. The
// block-transform arithmetic itself lives behind the runtime SIMD
// dispatch (simd.hpp): the AVX2 tier's build vectorizes each unit-stride
// lane loop into ymm fused multiply-adds, the scalar tier keeps portable
// codegen. BlockFns<M> maps the tile size to its table entries.
constexpr std::size_t kWinoBlock = kWinoBlockLanes;

template <int M>
struct BlockFns;

template <>
struct BlockFns<2> {
  static auto input(const WinogradBlockKernels& wk) { return wk.f2_input; }
  static auto output(const WinogradBlockKernels& wk) { return wk.f2_output; }
  static auto dy(const WinogradBlockKernels& wk) { return wk.f2_dy; }
};

template <>
struct BlockFns<4> {
  static auto input(const WinogradBlockKernels& wk) { return wk.f4_input; }
  static auto output(const WinogradBlockKernels& wk) { return wk.f4_output; }
  static auto dy(const WinogradBlockKernels& wk) { return wk.f4_dy; }
};

// Traits<M>: the F(MxM, 3x3) transform set. T = M + 2 is the transform
// size, P = T*T the number of transform-domain positions (= GEMMs).
//
// Forward:  Y = A^T [ (G g G^T) ⊙ (B^T d B) ] A
// Filter gradient: dg = G^T [ (A dY A^T) ⊙ (B^T d B) ] G, summed over
// tiles — the exact adjoint of the forward map with respect to g.
template <int M>
struct Traits;

// ---- F(2x2, 3x3) -----------------------------------------------------------
// B^T = [1,0,-1,0; 0,1,1,0; 0,-1,1,0; 0,1,0,-1]
// G   = [1,0,0; .5,.5,.5; .5,-.5,.5; 0,0,1]
// A^T = [1,1,1,0; 0,1,-1,-1]
template <>
struct Traits<2> {
  static constexpr int kM = 2;
  static constexpr int kT = 4;
  // Approximate per-tile transform adds for the analytic cost model.
  static constexpr std::uint64_t kInXformFlops = 56;    // per input channel
  static constexpr std::uint64_t kOutXformFlops = 24;   // per output channel
  static constexpr std::uint64_t kDyXformFlops = 24;    // per output channel
  static constexpr std::uint64_t kInvFilterFlops = 32;  // per (oc, ic) pair

  static void filter(const float* g, float* u) {
    float t[4][3];
    for (int c = 0; c < 3; ++c) {
      const float g0 = g[0 * 3 + c];
      const float g1 = g[1 * 3 + c];
      const float g2 = g[2 * 3 + c];
      t[0][c] = g0;
      t[1][c] = 0.5f * (g0 + g1 + g2);
      t[2][c] = 0.5f * (g0 - g1 + g2);
      t[3][c] = g2;
    }
    for (int r = 0; r < 4; ++r) {
      const float t0 = t[r][0];
      const float t1 = t[r][1];
      const float t2 = t[r][2];
      u[r * 4 + 0] = t0;
      u[r * 4 + 1] = 0.5f * (t0 + t1 + t2);
      u[r * 4 + 2] = 0.5f * (t0 - t1 + t2);
      u[r * 4 + 3] = t2;
    }
  }

  // dg += G^T du G with G^T = [1,.5,.5,0; 0,.5,-.5,0; 0,.5,.5,1].
  static void filter_grad(const float* du, float* dg) {
    float t[3][4];
    for (int c = 0; c < 4; ++c) {
      const float a0 = du[0 * 4 + c];
      const float a1 = du[1 * 4 + c];
      const float a2 = du[2 * 4 + c];
      const float a3 = du[3 * 4 + c];
      t[0][c] = a0 + 0.5f * (a1 + a2);
      t[1][c] = 0.5f * (a1 - a2);
      t[2][c] = 0.5f * (a1 + a2) + a3;
    }
    for (int r = 0; r < 3; ++r) {
      const float a0 = t[r][0];
      const float a1 = t[r][1];
      const float a2 = t[r][2];
      const float a3 = t[r][3];
      dg[r * 3 + 0] += a0 + 0.5f * (a1 + a2);
      dg[r * 3 + 1] += 0.5f * (a1 - a2);
      dg[r * 3 + 2] += 0.5f * (a1 + a2) + a3;
    }
  }
};

// ---- F(4x4, 3x3) -----------------------------------------------------------
// Lavin & Gray matrices:
// B^T = [4, 0,-5, 0,1,0;  0,-4,-4, 1,1,0;  0, 4,-4,-1,1,0;
//        0,-2,-1, 2,1,0;  0, 2,-1,-2,1,0;  0, 4, 0,-5,0,1]
// G   = [1/4,0,0; -1/6,-1/6,-1/6; -1/6,1/6,-1/6;
//        1/24,1/12,1/6; 1/24,-1/12,1/6; 0,0,1]
// A^T = [1,1,1,1,1,0; 0,1,-1,2,-2,0; 0,1,1,4,4,0; 0,1,-1,8,-8,1]
template <>
struct Traits<4> {
  static constexpr int kM = 4;
  static constexpr int kT = 6;
  // Approximate per-tile transform adds for the analytic cost model.
  static constexpr std::uint64_t kInXformFlops = 144;
  static constexpr std::uint64_t kOutXformFlops = 84;
  static constexpr std::uint64_t kDyXformFlops = 100;
  static constexpr std::uint64_t kInvFilterFlops = 90;

  static void filter(const float* g, float* u) {
    float t[6][3];
    for (int c = 0; c < 3; ++c) {
      const float g0 = g[0 * 3 + c];
      const float g1 = g[1 * 3 + c];
      const float g2 = g[2 * 3 + c];
      t[0][c] = 0.25f * g0;
      t[1][c] = (-g0 - g1 - g2) * (1.0f / 6.0f);
      t[2][c] = (-g0 + g1 - g2) * (1.0f / 6.0f);
      t[3][c] = g0 * (1.0f / 24.0f) + g1 * (1.0f / 12.0f) + g2 * (1.0f / 6.0f);
      t[4][c] = g0 * (1.0f / 24.0f) - g1 * (1.0f / 12.0f) + g2 * (1.0f / 6.0f);
      t[5][c] = g2;
    }
    for (int r = 0; r < 6; ++r) {
      const float g0 = t[r][0];
      const float g1 = t[r][1];
      const float g2 = t[r][2];
      u[r * 6 + 0] = 0.25f * g0;
      u[r * 6 + 1] = (-g0 - g1 - g2) * (1.0f / 6.0f);
      u[r * 6 + 2] = (-g0 + g1 - g2) * (1.0f / 6.0f);
      u[r * 6 + 3] = g0 * (1.0f / 24.0f) + g1 * (1.0f / 12.0f) + g2 * (1.0f / 6.0f);
      u[r * 6 + 4] = g0 * (1.0f / 24.0f) - g1 * (1.0f / 12.0f) + g2 * (1.0f / 6.0f);
      u[r * 6 + 5] = g2;
    }
  }

  // dg += G^T du G.
  static void filter_grad(const float* du, float* dg) {
    float t[3][6];
    for (int c = 0; c < 6; ++c) {
      const float a0 = du[0 * 6 + c];
      const float a1 = du[1 * 6 + c];
      const float a2 = du[2 * 6 + c];
      const float a3 = du[3 * 6 + c];
      const float a4 = du[4 * 6 + c];
      const float a5 = du[5 * 6 + c];
      t[0][c] = 0.25f * a0 - (a1 + a2) * (1.0f / 6.0f) +
                (a3 + a4) * (1.0f / 24.0f);
      t[1][c] = (a2 - a1) * (1.0f / 6.0f) + (a3 - a4) * (1.0f / 12.0f);
      t[2][c] = -(a1 + a2) * (1.0f / 6.0f) + (a3 + a4) * (1.0f / 6.0f) + a5;
    }
    for (int r = 0; r < 3; ++r) {
      const float a0 = t[r][0];
      const float a1 = t[r][1];
      const float a2 = t[r][2];
      const float a3 = t[r][3];
      const float a4 = t[r][4];
      const float a5 = t[r][5];
      dg[r * 3 + 0] += 0.25f * a0 - (a1 + a2) * (1.0f / 6.0f) +
                       (a3 + a4) * (1.0f / 24.0f);
      dg[r * 3 + 1] += (a2 - a1) * (1.0f / 6.0f) + (a3 - a4) * (1.0f / 12.0f);
      dg[r * 3 + 2] += -(a1 + a2) * (1.0f / 6.0f) + (a3 + a4) * (1.0f / 6.0f) +
                       a5;
    }
  }
};

struct TileGrid {
  std::size_t oh, ow, tiles_y, tiles_x, tiles;
};

template <int M>
TileGrid tile_grid(std::size_t h, std::size_t w, std::size_t pad) {
  PF15_CHECK(h + 2 * pad >= 3 && w + 2 * pad >= 3);
  TileGrid g;
  g.oh = h + 2 * pad - 2;
  g.ow = w + 2 * pad - 2;
  g.tiles_y = (g.oh + M - 1) / M;
  g.tiles_x = (g.ow + M - 1) / M;
  g.tiles = g.tiles_y * g.tiles_x;
  return g;
}

/// Filter transform into U[k]: (out_c x in_c) per position.
template <int M>
void transform_filters(const float* weight, std::size_t in_c,
                       std::size_t out_c, float* u) {
  constexpr int P = Traits<M>::kT * Traits<M>::kT;
  const std::size_t uk = out_c * in_c;
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      float u_tile[P];
      Traits<M>::filter(weight + (oc * in_c + ic) * 9, u_tile);
      for (int k = 0; k < P; ++k) {
        u[static_cast<std::size_t>(k) * uk + oc * in_c + ic] = u_tile[k];
      }
    }
  }
}

/// Input transform into V[k]: (in_c x tiles) per position, tile blocks of
/// kWinoBlock transformed SoA so the arithmetic vectorizes.
template <int M>
void transform_inputs(const float* image, std::size_t in_c, std::size_t h,
                      std::size_t w, std::size_t pad, const TileGrid& tg,
                      float* v) {
  constexpr int T = Traits<M>::kT;
  constexpr int P = T * T;
  constexpr std::size_t B = kWinoBlock;
  const auto input_block = BlockFns<M>::input(winograd_block_kernels());
  float d[P * B];
  float vt[P * B];
  for (std::size_t ic = 0; ic < in_c; ++ic) {
    const float* plane = image + ic * h * w;
    for (std::size_t t0 = 0; t0 < tg.tiles; t0 += B) {
      const std::size_t nb = std::min(B, tg.tiles - t0);
      for (std::size_t l = 0; l < nb; ++l) {
        const std::size_t tile = t0 + l;
        const std::size_t ty = tile / tg.tiles_x;
        const std::size_t tx = tile % tg.tiles_x;
        for (int dy = 0; dy < T; ++dy) {
          const std::ptrdiff_t sy =
              static_cast<std::ptrdiff_t>(M * ty + static_cast<std::size_t>(dy)) -
              static_cast<std::ptrdiff_t>(pad);
          const bool row_ok = sy >= 0 && sy < static_cast<std::ptrdiff_t>(h);
          for (int dx = 0; dx < T; ++dx) {
            const std::ptrdiff_t sx =
                static_cast<std::ptrdiff_t>(M * tx +
                                            static_cast<std::size_t>(dx)) -
                static_cast<std::ptrdiff_t>(pad);
            d[(dy * T + dx) * B + l] =
                (!row_ok || sx < 0 || sx >= static_cast<std::ptrdiff_t>(w))
                    ? 0.0f
                    : plane[static_cast<std::size_t>(sy) * w +
                            static_cast<std::size_t>(sx)];
          }
        }
      }
      for (int k = 0; k < P; ++k) {
        for (std::size_t l = nb; l < B; ++l) d[k * B + l] = 0.0f;
      }
      input_block(d, vt);
      for (int k = 0; k < P; ++k) {
        std::memcpy(v + static_cast<std::size_t>(k) * in_c * tg.tiles +
                        ic * tg.tiles + t0,
                    vt + k * B, nb * sizeof(float));
      }
    }
  }
}

/// `weight` xor `u_pre`: when `u_pre` is non-null it is the caller's
/// pre-transformed filter bank (shared read-only across a batch) and the
/// raw weights are not touched.
template <int M>
void wino_forward(const float* image, std::size_t in_c, std::size_t h,
                  std::size_t w, const float* weight, const float* u_pre,
                  std::size_t out_c, std::size_t pad, const float* bias,
                  float* output) {
  constexpr int T = Traits<M>::kT;
  constexpr int P = T * T;
  constexpr std::size_t B = kWinoBlock;
  PF15_CHECK(in_c > 0 && out_c > 0);
  const TileGrid tg = tile_grid<M>(h, w, pad);

  ScratchLease u_lease(u_pre == nullptr
                           ? static_cast<std::size_t>(P) * out_c * in_c
                           : 0);
  const float* u = u_pre;
  if (u == nullptr) {
    transform_filters<M>(weight, in_c, out_c, u_lease.data());
    u = u_lease.data();
  }
  ScratchLease v_lease(static_cast<std::size_t>(P) * in_c * tg.tiles);
  ScratchLease m_lease(static_cast<std::size_t>(P) * out_c * tg.tiles);
  float* v = v_lease.data();
  float* m = m_lease.data();

  transform_inputs<M>(image, in_c, h, w, pad, tg, v);

  // M[k] = U[k] (out_c x in_c) * V[k] (in_c x tiles).
  for (int k = 0; k < P; ++k) {
    sgemm(false, false, out_c, tg.tiles, in_c, 1.0f,
          u + static_cast<std::size_t>(k) * out_c * in_c, in_c,
          v + static_cast<std::size_t>(k) * in_c * tg.tiles, tg.tiles, 0.0f,
          m + static_cast<std::size_t>(k) * out_c * tg.tiles, tg.tiles);
  }

  // Inverse transform + scatter (crop ragged edges). The gather over k is
  // unit-stride in the tile index, so blocks load contiguously.
  const auto output_block = BlockFns<M>::output(winograd_block_kernels());
  float mt[P * B];
  float yt[M * M * B];
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    float* out_plane = output + oc * tg.oh * tg.ow;
    const float b = bias != nullptr ? bias[oc] : 0.0f;
    for (std::size_t t0 = 0; t0 < tg.tiles; t0 += B) {
      const std::size_t nb = std::min(B, tg.tiles - t0);
      for (int k = 0; k < P; ++k) {
        std::memcpy(mt + k * B,
                    m + static_cast<std::size_t>(k) * out_c * tg.tiles +
                        oc * tg.tiles + t0,
                    nb * sizeof(float));
      }
      output_block(mt, yt);
      for (std::size_t l = 0; l < nb; ++l) {
        const std::size_t tile = t0 + l;
        const std::size_t ty = tile / tg.tiles_x;
        const std::size_t tx = tile % tg.tiles_x;
        for (int dy = 0; dy < M; ++dy) {
          const std::size_t oy = M * ty + static_cast<std::size_t>(dy);
          if (oy >= tg.oh) continue;
          for (int dx = 0; dx < M; ++dx) {
            const std::size_t ox = M * tx + static_cast<std::size_t>(dx);
            if (ox >= tg.ow) continue;
            out_plane[oy * tg.ow + ox] = yt[(dy * M + dx) * B + l] + b;
          }
        }
      }
    }
  }
}

template <int M>
void wino_backward_filter(const float* image, std::size_t in_c,
                          std::size_t h, std::size_t w, const float* dout,
                          std::size_t out_c, std::size_t pad,
                          float* dweight) {
  constexpr int T = Traits<M>::kT;
  constexpr int P = T * T;
  constexpr std::size_t B = kWinoBlock;
  PF15_CHECK(in_c > 0 && out_c > 0);
  const TileGrid tg = tile_grid<M>(h, w, pad);

  ScratchLease v_lease(static_cast<std::size_t>(P) * in_c * tg.tiles);
  ScratchLease dy_lease(static_cast<std::size_t>(P) * out_c * tg.tiles);
  ScratchLease du_lease(static_cast<std::size_t>(P) * out_c * in_c);
  float* v = v_lease.data();
  float* dyt = dy_lease.data();
  float* du = du_lease.data();

  transform_inputs<M>(image, in_c, h, w, pad, tg, v);

  // dM[k]: (out_c x tiles), the A dY A^T transform of the output-gradient
  // tiles; ragged positions gather zero — the adjoint of the forward crop.
  const auto dy_block = BlockFns<M>::dy(winograd_block_kernels());
  float dy[M * M * B];
  float dmt[P * B];
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    const float* dplane = dout + oc * tg.oh * tg.ow;
    for (std::size_t t0 = 0; t0 < tg.tiles; t0 += B) {
      const std::size_t nb = std::min(B, tg.tiles - t0);
      for (std::size_t l = 0; l < nb; ++l) {
        const std::size_t tile = t0 + l;
        const std::size_t ty = tile / tg.tiles_x;
        const std::size_t tx = tile % tg.tiles_x;
        for (int dyi = 0; dyi < M; ++dyi) {
          const std::size_t oy = M * ty + static_cast<std::size_t>(dyi);
          for (int dxi = 0; dxi < M; ++dxi) {
            const std::size_t ox = M * tx + static_cast<std::size_t>(dxi);
            dy[(dyi * M + dxi) * B + l] =
                (oy >= tg.oh || ox >= tg.ow)
                    ? 0.0f
                    : dplane[oy * tg.ow + ox];
          }
        }
      }
      for (int k = 0; k < M * M; ++k) {
        for (std::size_t l = nb; l < B; ++l) dy[k * B + l] = 0.0f;
      }
      dy_block(dy, dmt);
      for (int k = 0; k < P; ++k) {
        std::memcpy(dyt + static_cast<std::size_t>(k) * out_c * tg.tiles +
                        oc * tg.tiles + t0,
                    dmt + k * B, nb * sizeof(float));
      }
    }
  }

  // dU[k] (out_c x in_c) = dM[k] (out_c x tiles) * V[k]^T (tiles x in_c).
  for (int k = 0; k < P; ++k) {
    sgemm(false, true, out_c, in_c, tg.tiles, 1.0f,
          dyt + static_cast<std::size_t>(k) * out_c * tg.tiles, tg.tiles,
          v + static_cast<std::size_t>(k) * in_c * tg.tiles, tg.tiles, 0.0f,
          du + static_cast<std::size_t>(k) * out_c * in_c, in_c);
  }

  // dg += G^T dU G per filter.
  const std::size_t uk = out_c * in_c;
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      float du_tile[P];
      for (int k = 0; k < P; ++k) {
        du_tile[k] = du[static_cast<std::size_t>(k) * uk + oc * in_c + ic];
      }
      Traits<M>::filter_grad(du_tile, dweight + (oc * in_c + ic) * 9);
    }
  }
}

}  // namespace

void winograd_conv3x3(const float* image, std::size_t in_c, std::size_t h,
                      std::size_t w, const float* weight, std::size_t out_c,
                      std::size_t pad, const float* bias, float* output,
                      WinogradTile tile) {
  if (tile == WinogradTile::kF4x4) {
    wino_forward<4>(image, in_c, h, w, weight, nullptr, out_c, pad, bias,
                    output);
  } else {
    wino_forward<2>(image, in_c, h, w, weight, nullptr, out_c, pad, bias,
                    output);
  }
}

std::size_t winograd_filter_xform_floats(std::size_t in_c,
                                         std::size_t out_c,
                                         WinogradTile tile) {
  const std::size_t t = tile == WinogradTile::kF4x4
                            ? static_cast<std::size_t>(Traits<4>::kT)
                            : static_cast<std::size_t>(Traits<2>::kT);
  return t * t * in_c * out_c;
}

void winograd_transform_filters(const float* weight, std::size_t in_c,
                                std::size_t out_c, WinogradTile tile,
                                float* u) {
  PF15_CHECK(in_c > 0 && out_c > 0);
  if (tile == WinogradTile::kF4x4) {
    transform_filters<4>(weight, in_c, out_c, u);
  } else {
    transform_filters<2>(weight, in_c, out_c, u);
  }
}

void winograd_conv3x3_pre(const float* image, std::size_t in_c,
                          std::size_t h, std::size_t w, const float* u,
                          std::size_t out_c, std::size_t pad,
                          const float* bias, float* output,
                          WinogradTile tile) {
  PF15_CHECK(u != nullptr);
  if (tile == WinogradTile::kF4x4) {
    wino_forward<4>(image, in_c, h, w, nullptr, u, out_c, pad, bias, output);
  } else {
    wino_forward<2>(image, in_c, h, w, nullptr, u, out_c, pad, bias, output);
  }
}

void winograd_backward_filter3x3(const float* image, std::size_t in_c,
                                 std::size_t h, std::size_t w,
                                 const float* dout, std::size_t out_c,
                                 std::size_t pad, float* dweight,
                                 WinogradTile tile) {
  if (tile == WinogradTile::kF4x4) {
    wino_backward_filter<4>(image, in_c, h, w, dout, out_c, pad, dweight);
  } else {
    wino_backward_filter<2>(image, in_c, h, w, dout, out_c, pad, dweight);
  }
}

namespace {

// The cost models share the exact tile grid and position count the
// kernels run with (Traits<M>/tile_grid<M>), so the autotune flops
// cutoff can never drift from the implementation.
template <int M>
std::uint64_t wino_forward_flops(std::size_t in_c, std::size_t out_c,
                                 std::size_t h, std::size_t w,
                                 std::size_t pad) {
  constexpr std::uint64_t p = static_cast<std::uint64_t>(Traits<M>::kT) *
                              Traits<M>::kT;
  const std::uint64_t tiles = tile_grid<M>(h, w, pad).tiles;
  // Dominant term: P GEMMs of (out_c x in_c x tiles) multiply-adds, plus
  // the per-tile input / output transform adds (approximate counts).
  return p * flops(out_c, tiles, in_c) +
         tiles * (in_c * Traits<M>::kInXformFlops +
                  out_c * Traits<M>::kOutXformFlops);
}

template <int M>
std::uint64_t wino_bwd_filter_flops(std::size_t in_c, std::size_t out_c,
                                    std::size_t h, std::size_t w,
                                    std::size_t pad) {
  constexpr std::uint64_t p = static_cast<std::uint64_t>(Traits<M>::kT) *
                              Traits<M>::kT;
  const std::uint64_t tiles = tile_grid<M>(h, w, pad).tiles;
  return p * flops(out_c, in_c, tiles) +
         tiles * (in_c * Traits<M>::kInXformFlops +
                  out_c * Traits<M>::kDyXformFlops) +
         static_cast<std::uint64_t>(out_c) * in_c *
             Traits<M>::kInvFilterFlops;
}

}  // namespace

std::uint64_t winograd_flops(std::size_t in_c, std::size_t out_c,
                             std::size_t h, std::size_t w, std::size_t pad,
                             WinogradTile tile) {
  return tile == WinogradTile::kF4x4
             ? wino_forward_flops<4>(in_c, out_c, h, w, pad)
             : wino_forward_flops<2>(in_c, out_c, h, w, pad);
}

std::uint64_t winograd_backward_filter_flops(std::size_t in_c,
                                             std::size_t out_c,
                                             std::size_t h, std::size_t w,
                                             std::size_t pad,
                                             WinogradTile tile) {
  return tile == WinogradTile::kF4x4
             ? wino_bwd_filter_flops<4>(in_c, out_c, h, w, pad)
             : wino_bwd_filter_flops<2>(in_c, out_c, h, w, pad);
}

}  // namespace pf15::gemm
