// Memory-bound layer kernels shared by the eager layers (ReLU, MaxPool2d,
// GlobalAvgPool, the conv/deconv bias and filter-gradient reductions) and
// the compiled executor, so both paths run one implementation.
//
// Every kernel is branch-free in its inner loop and fans out over the
// given scheduler in fixed-size pieces: element chunks for ReLU and the
// filter-gradient partial sums, whole planes for pooling, channels for
// bias gradients. Inputs below one piece run inline on the caller. Each
// output element is computed by exactly one task with the same
// arithmetic, in the same order, as the serial loop, so results are
// bit-identical for any scheduler width.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/task_scheduler.hpp"

namespace pf15::nn {

/// dst[i] = src[i] > 0 ? src[i] : 0, for i in [0, n).
void relu_forward(const float* src, float* dst, std::size_t n,
                  TaskScheduler& sched);

/// din[i] = x[i] > 0 ? dout[i] : 0, for i in [0, n).
void relu_backward(const float* x, const float* dout, float* din,
                   std::size_t n, TaskScheduler& sched);

/// Geometry of a max pool over `planes` independent (ih, iw) planes.
struct PoolGeom {
  std::size_t planes = 0;
  std::size_t ih = 0, iw = 0;
  std::size_t oh = 0, ow = 0;
  std::size_t kernel = 0, stride = 0;
};

/// Max over each kernel x kernel window. The strict `>` keeps the first
/// maximum in row-major tap order and never selects a NaN (an all-NaN
/// window yields -inf). When `argmax` is non-null it receives, per output
/// element, the index of the selected tap within its input plane.
void maxpool_forward(const PoolGeom& g, const float* src, float* dst,
                     std::uint32_t* argmax, TaskScheduler& sched);

/// Routes each output gradient to its argmax: din is overwritten (zeroed,
/// then accumulated into) plane by plane.
void maxpool_backward(const PoolGeom& g, const float* dout,
                      const std::uint32_t* argmax, float* din,
                      TaskScheduler& sched);

/// dst[p] = mean of plane p (summed in double), for p in [0, planes).
void global_avg_pool_forward(const float* src, float* dst,
                             std::size_t planes, std::size_t plane,
                             TaskScheduler& sched);

/// Every element of plane p becomes dout[p] / plane.
void global_avg_pool_backward(const float* dout, float* din,
                              std::size_t planes, std::size_t plane,
                              TaskScheduler& sched);

/// grad[c] += sum over each image's plane c of dout, for a batch of
/// `images` laid out (images, channels, plane). Images are added in
/// order, each summed in double first.
void bias_grad_accumulate(const float* dout, std::size_t images,
                          std::size_t channels, std::size_t plane,
                          float* grad, TaskScheduler& sched);

/// grad[i] += partials[img * n + i] for img = 0, 1, ..., images - 1 in
/// turn, for i in [0, n): per-image gradient partials computed in
/// parallel are folded onto the gradient in image order, so the sum does
/// not depend on which task finished first. Fans out over element pieces.
void accumulate_image_partials(const float* partials, std::size_t images,
                               std::size_t n, float* grad,
                               TaskScheduler& sched);

}  // namespace pf15::nn
