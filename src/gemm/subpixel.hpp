// Sub-pixel form of stride-s convolutions (Shi et al., "Is the
// deconvolution layer the same as a convolutional layer?", 2016).
//
// A stride-s convolution with kernel k = 2p + s and s | p maps a
// high-resolution image X (C, H, W) onto a low-resolution output
// Y (OC, H/s, W/s). Splitting every kernel tap index i into a phase
// a = i mod s and a coarse offset m = i div s turns it into s² stride-1
// t x t convolutions (t = k / s) of the low-resolution phase planes of X:
//
//   Y[o][y][x] = sum_{a,b,c,m,n} W[o][c][a + s·m][b + s·n]
//                                · X[c][s(y + m - q) + a][s(x + n - q) + b]
//
// with q = p / s. The phase planes are X's space-to-depth (S2D)
// rearrangement, an (s²·C, H/s, W/s) tensor, and the s² filters together
// form one rearranged weight matrix W2 of (s²·C) x (OC·t²):
//
//   W2[(a,b,c)][(o,u,v)] = W[o][c][a + s(t-1-u)][b + s(t-1-v)].
//
// Every phase of the convolution then lowers only the low-resolution
// side, with a stride-1 t x t pad-q im2col of OC·t² rows instead of
// im2col's C·k² rows over the high-resolution output:
//
//   backward-data (a stride-2 deconvolution's forward):
//       dX = D2S(W2 · im2col_t(dY))
//   forward (the deconvolution's input gradient):
//       Y = col2im_t(W2^T · S2D(X))
//   backward-filter:
//       dW += scatter(S2D(X) · im2col_t(dY)^T)
//
// The gemm::ConvBackend adapter ("subpixel") runs these GEMMs; this
// header holds the rearrangements.
#pragma once

#include <cstddef>

#include "gemm/im2col.hpp"

namespace pf15::gemm {

/// Whether `g` runs in sub-pixel form: kernel, stride and pad equal on
/// both axes, stride s >= 2, kernel k == 2p + s, s | p, and in_h and in_w
/// divisible by s.
bool subpixel_applicable(const ConvGeom& g);

/// The stride-1 t x t pad-(p/s) convolution over the low-resolution side
/// of `g` (which must be subpixel_applicable): `channels` input planes of
/// (in_h/s) x (in_w/s). im2col/col2im of this geometry are the t x t
/// lowerings above.
ConvGeom subpixel_low_geom(const ConvGeom& g, std::size_t channels);

/// W (OC, C, k, k) -> W2, (s²·C) x (OC·t²) row-major: as many floats
/// as W.
void subpixel_filters(const ConvGeom& g, std::size_t out_c,
                      const float* weight, float* w2);

/// Adjoint of subpixel_filters: dweight += the W-layout image of dw2.
void subpixel_filters_accumulate(const ConvGeom& g, std::size_t out_c,
                                 const float* dw2, float* dweight);

/// X (C, H, W) -> S2D(X) (s²·C, H/s, W/s): plane (a·s + b)·C + c holds
/// X[c][s·y + a][s·x + b].
void space_to_depth(const ConvGeom& g, const float* image, float* s2d);

/// Inverse of space_to_depth: overwrites every element of `image`.
void depth_to_space(const ConvGeom& g, const float* s2d, float* image);

}  // namespace pf15::gemm
