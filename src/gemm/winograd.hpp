// Winograd fast convolution — the paper's explicitly named future-work
// direction (§VIII-A: "the state of the art in deep learning kernel
// implementations is rapidly evolving with new algorithms like Winograd
// [43]...; studying the impact on per-node performance ... is a direction
// for future research").
//
// Two tile sizes of the Lavin & Gray formulation are implemented for 3x3
// stride-1 kernels:
//   F(2x2, 3x3): 16 multiplies per 2x2 output tile instead of 36 (2.25x),
//   F(4x4, 3x3): 36 multiplies per 4x4 output tile instead of 144 (4x).
// The multi-channel formulation batches the transform positions into
// (OC x IC) x (IC x tiles) GEMMs, which is how production libraries
// implement it. Transforms process tiles in blocks of kWinoBlock laid out
// structure-of-arrays, so the transform arithmetic runs over contiguous
// lanes and auto-vectorizes. Every kernel computes one image serially on
// the calling thread; callers parallelize over images.
//
// Training support: the filter gradient has its own transform-domain
// kernel (dg = G^T [(A dY A^T) ⊙ (B^T d B)] G, accumulated over tiles);
// the data gradient of a stride-1 3x3 convolution is itself a stride-1
// 3x3 convolution of the output gradient with the channel-transposed,
// 180°-rotated filter bank, so it reuses the forward kernel (the
// gemm::ConvBackend adapter performs that swap).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pf15::gemm {

/// Output-tile size of the Winograd formulation.
enum class WinogradTile : int {
  kF2x2 = 0,  // F(2x2,3x3): 4x4 transforms, best for small output grids
  kF4x4 = 1,  // F(4x4,3x3): 6x6 transforms, higher arithmetic reduction
};

/// Stable lower-case name ("f2x2", "f4x4").
const char* to_string(WinogradTile tile);

/// Geometry restrictions of this implementation: kernel 3x3, stride 1,
/// arbitrary padding. Returns whether the fast path applies.
bool winograd_applicable(std::size_t kernel, std::size_t stride);

/// The tile the auto-dispatching callers use for an (out_h x out_w)
/// output grid: F(4x4,3x3) once the grid is large enough to fill 4x4
/// tiles, F(2x2,3x3) below that.
WinogradTile winograd_pick_tile(std::size_t out_h, std::size_t out_w);

/// Computes one image's convolution via Winograd:
///   output(OC, OH, OW) = weight(OC, IC, 3, 3) * image(IC, H, W), `pad`
/// zeros on each border, stride 1, OH = H + 2*pad - 2, OW likewise.
/// `bias` may be null. Ragged right/bottom edges are handled by padding
/// the tile grid internally.
void winograd_conv3x3(const float* image, std::size_t in_c, std::size_t h,
                      std::size_t w, const float* weight,
                      std::size_t out_c, std::size_t pad,
                      const float* bias, float* output,
                      WinogradTile tile = WinogradTile::kF2x2);

/// Floats in the transformed filter bank U for the given tile: T*T
/// transform positions of an (out_c x in_c) matrix each.
std::size_t winograd_filter_xform_floats(std::size_t in_c,
                                         std::size_t out_c,
                                         WinogradTile tile);

/// Pre-computes U = G g G^T for every (oc, ic) filter into `u`
/// (winograd_filter_xform_floats floats, position-major — the layout the
/// transform-domain GEMMs consume). U depends only on the weights, so a
/// batch loop computes it once and shares it read-only across images
/// (and pool threads) via winograd_conv3x3_pre.
void winograd_transform_filters(const float* weight, std::size_t in_c,
                                std::size_t out_c, WinogradTile tile,
                                float* u);

/// winograd_conv3x3 with a pre-transformed filter bank `u` (from
/// winograd_transform_filters with the same channels and tile) — the
/// per-batch filter-transform hoist.
void winograd_conv3x3_pre(const float* image, std::size_t in_c,
                          std::size_t h, std::size_t w, const float* u,
                          std::size_t out_c, std::size_t pad,
                          const float* bias, float* output,
                          WinogradTile tile = WinogradTile::kF2x2);

/// Filter gradient in the transform domain, accumulated (+=) into
/// `dweight` (OC, IC, 3, 3): image (IC, H, W) is the layer input, dout
/// (OC, OH, OW) the output gradient of the same geometry as
/// winograd_conv3x3 above.
void winograd_backward_filter3x3(const float* image, std::size_t in_c,
                                 std::size_t h, std::size_t w,
                                 const float* dout, std::size_t out_c,
                                 std::size_t pad, float* dweight,
                                 WinogradTile tile = WinogradTile::kF2x2);

/// Multiplies in the transform domain for a given geometry — used for
/// flop accounting and the direct-vs-Winograd ablation. Counts one
/// multiply-add as two FLOPs.
std::uint64_t winograd_flops(std::size_t in_c, std::size_t out_c,
                             std::size_t h, std::size_t w, std::size_t pad,
                             WinogradTile tile = WinogradTile::kF2x2);

/// Transform-domain cost of winograd_backward_filter3x3 (same GEMM
/// shapes as the forward, plus the dY and inverse-filter transforms).
std::uint64_t winograd_backward_filter_flops(
    std::size_t in_c, std::size_t out_c, std::size_t h, std::size_t w,
    std::size_t pad, WinogradTile tile = WinogradTile::kF2x2);

}  // namespace pf15::gemm
