// Pooling layers: max pooling (first four HEP units) and global average
// pooling (last HEP unit) per §III-A.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/elementwise.hpp"
#include "nn/layer.hpp"

namespace pf15::nn {

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, std::size_t kernel, std::size_t stride);

  const std::string& name() const override { return name_; }
  std::string kind() const override { return "pool"; }
  Shape output_shape(const Shape& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  std::uint64_t forward_flops(const Shape& in) const override;
  std::uint64_t backward_flops(const Shape& in) const override;

  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }

 private:
  PoolGeom geom(const Shape& in) const;

  std::string name_;
  std::size_t kernel_;
  std::size_t stride_;
  // Index within its input plane of the max element for every output
  // element of the latest forward() — consumed by backward().
  std::vector<std::uint32_t> argmax_;
};

/// Collapses each channel plane to its mean: (N, C, H, W) -> (N, C, 1, 1).
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  std::string kind() const override { return "gap"; }
  Shape output_shape(const Shape& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  std::uint64_t forward_flops(const Shape& in) const override;
  std::uint64_t backward_flops(const Shape& in) const override;

 private:
  std::string name_;
};

}  // namespace pf15::nn
