#include "nn/pool.hpp"

namespace pf15::nn {

MaxPool2d::MaxPool2d(std::string name, std::size_t kernel,
                     std::size_t stride)
    : name_(std::move(name)), kernel_(kernel), stride_(stride) {
  PF15_CHECK(kernel_ > 0 && stride_ > 0);
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  PF15_CHECK_MSG(in.rank() == 4 && in.h() >= kernel_ && in.w() >= kernel_,
                 name_ << ": bad input " << in);
  return Shape{in.n(), in.c(), (in.h() - kernel_) / stride_ + 1,
               (in.w() - kernel_) / stride_ + 1};
}

PoolGeom MaxPool2d::geom(const Shape& in) const {
  const Shape os = output_shape(in);
  PoolGeom g;
  g.planes = in.n() * in.c();
  g.ih = in.h();
  g.iw = in.w();
  g.oh = os.h();
  g.ow = os.w();
  g.kernel = kernel_;
  g.stride = stride_;
  return g;
}

void MaxPool2d::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, output_shape(in.shape()));
  argmax_.resize(out.numel());  // every element is written
  maxpool_forward(geom(in.shape()), in.data(), out.data(), argmax_.data(),
                  TaskScheduler::global());
}

void MaxPool2d::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == output_shape(in.shape()));
  PF15_CHECK_MSG(argmax_.size() == dout.numel(),
                 name_ << ": backward without matching forward");
  ensure_shape(din, in.shape());
  maxpool_backward(geom(in.shape()), dout.data(), argmax_.data(), din.data(),
                   TaskScheduler::global());
}

std::uint64_t MaxPool2d::forward_flops(const Shape& in) const {
  // One comparison per tap; comparisons counted as one FLOP each.
  const Shape os = output_shape(in);
  return os.numel() * kernel_ * kernel_;
}

std::uint64_t MaxPool2d::backward_flops(const Shape& in) const {
  return output_shape(in).numel();
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  PF15_CHECK_MSG(in.rank() == 4, name_ << ": bad input " << in);
  return Shape{in.n(), in.c(), 1, 1};
}

void GlobalAvgPool::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, output_shape(in.shape()));
  global_avg_pool_forward(in.data(), out.data(),
                          in.shape().n() * in.shape().c(),
                          in.shape().h() * in.shape().w(),
                          TaskScheduler::global());
}

void GlobalAvgPool::backward(const Tensor& in, const Tensor& dout,
                             Tensor& din) {
  PF15_CHECK(dout.shape() == output_shape(in.shape()));
  ensure_shape(din, in.shape());
  global_avg_pool_backward(dout.data(), din.data(),
                           in.shape().n() * in.shape().c(),
                           in.shape().h() * in.shape().w(),
                           TaskScheduler::global());
}

std::uint64_t GlobalAvgPool::forward_flops(const Shape& in) const {
  return in.numel();
}

std::uint64_t GlobalAvgPool::backward_flops(const Shape& in) const {
  return in.numel();
}

}  // namespace pf15::nn
