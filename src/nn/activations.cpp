#include "nn/activations.hpp"

#include <cmath>

#include "nn/elementwise.hpp"

namespace pf15::nn {

void ReLU::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, in.shape());
  relu_forward(in.data(), out.data(), in.numel(), TaskScheduler::global());
}

void ReLU::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == in.shape());
  ensure_shape(din, in.shape());
  relu_backward(in.data(), dout.data(), din.data(), in.numel(),
                TaskScheduler::global());
}

void Sigmoid::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, in.shape());
  ensure_shape(out_cache_, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = 1.0f / (1.0f + std::exp(-in.data()[i]));
    out.data()[i] = y;
    out_cache_.data()[i] = y;
  }
}

void Sigmoid::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == in.shape());
  PF15_CHECK_MSG(out_cache_.defined() && out_cache_.shape() == in.shape(),
                 name_ << ": backward without matching forward");
  ensure_shape(din, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = out_cache_.data()[i];
    din.data()[i] = dout.data()[i] * y * (1.0f - y);
  }
}

void Tanh::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, in.shape());
  ensure_shape(out_cache_, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = std::tanh(in.data()[i]);
    out.data()[i] = y;
    out_cache_.data()[i] = y;
  }
}

void Tanh::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == in.shape());
  PF15_CHECK_MSG(out_cache_.defined() && out_cache_.shape() == in.shape(),
                 name_ << ": backward without matching forward");
  ensure_shape(din, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = out_cache_.data()[i];
    din.data()[i] = dout.data()[i] * (1.0f - y * y);
  }
}

}  // namespace pf15::nn
