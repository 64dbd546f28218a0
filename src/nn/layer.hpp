// Layer abstraction.
//
// A Layer is a differentiable function of one input tensor plus owned
// parameters. The enclosing container (Sequential or a composite model)
// owns the activations and hands the forward input back to backward, so
// layers only cache cheap auxiliary state (e.g. pooling argmax indices).
//
// Gradient semantics: backward *accumulates* (+=) into parameter gradient
// tensors; the solver/trainer zeroes them between iterations. This is what
// lets a compute group process several micro-batches before one reduction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace pf15::nn {

/// A named (value, gradient) pair exposed by a layer. Pointers remain valid
/// for the lifetime of the layer.
struct Param {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer name ("conv1", "pool3", ...).
  virtual const std::string& name() const = 0;
  /// Short kind tag ("conv", "pool", "relu", ...), used by the profiler.
  virtual std::string kind() const = 0;

  /// Output shape produced for a given input shape. Must not depend on
  /// parameter values. PF15_CHECKs on incompatible input.
  virtual Shape output_shape(const Shape& in) const = 0;

  /// out = f(in). `out` is (re)allocated by the callee if its shape is
  /// wrong. A layer instance is not re-entrant: one forward/backward pair
  /// in flight at a time.
  virtual void forward(const Tensor& in, Tensor& out) = 0;

  /// din = df/din^T · dout; parameter gradients accumulate. `in` must be
  /// the exact tensor passed to the latest forward().
  virtual void backward(const Tensor& in, const Tensor& dout,
                        Tensor& din) = 0;

  /// backward() for a caller that discards din — the first layer of a
  /// trainer, whose input is data. Parameter gradients accumulate
  /// bit-identically to backward(). The default runs backward() into
  /// `unused_din`; a layer whose data pass is separable skips it.
  virtual void backward_params(const Tensor& in, const Tensor& dout,
                               Tensor& unused_din) {
    backward(in, dout, unused_din);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Non-trainable state tensors that must survive a checkpoint round trip
  /// (e.g. BatchNorm running statistics). Returned as Params with a null
  /// grad. Pointers remain valid for the lifetime of the layer.
  virtual std::vector<Param> state() { return {}; }

  /// Switches between training behaviour (batch statistics, dropout masks)
  /// and inference behaviour (running estimates, identity dropout).
  /// Composite layers must propagate to children. No-op for layers whose
  /// forward is mode-independent.
  virtual void set_training(bool training) { (void)training; }

  /// Whether this layer still runs training behaviour. Layers whose
  /// forward is mode-independent report false; composites report true
  /// when any child does. The graph compiler uses this to name the
  /// offending layer when refusing a training-mode capture.
  virtual bool training() const { return false; }

  /// Opt-in for the compiled executor's wide levels: return true when
  /// forward() may run inside a task of common::task_scheduler,
  /// concurrently with other graph nodes. The contract: forward must not
  /// touch state shared with other layers, and any internal parallelism
  /// must go through the task scheduler (TaskScheduler::parallel_for —
  /// nested waits are legal there) rather than blocking on primitives
  /// the scheduler cannot help with. Layers the compiler
  /// lowers to known kinds never consult this; it only gates *opaque*
  /// extension nodes, which otherwise schedule serially between levels.
  virtual bool parallel_ok() const { return false; }

  /// Analytic FLOP counts (the §V accounting). Counts multiply-adds as two
  /// FLOPs; elementwise ops as one per element.
  virtual std::uint64_t forward_flops(const Shape& in) const = 0;
  virtual std::uint64_t backward_flops(const Shape& in) const = 0;
  /// FLOPs of backward_params(): backward_flops() unless it skips work.
  virtual std::uint64_t backward_params_flops(const Shape& in) const {
    return backward_flops(in);
  }

  /// Total number of trainable scalars.
  std::size_t param_count() {
    std::size_t n = 0;
    for (const auto& p : params()) n += p.value->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Ensures `t` has shape `s`, reallocating when needed (contents undefined
/// after reallocation).
inline void ensure_shape(Tensor& t, const Shape& s) {
  if (!t.defined() || t.shape() != s) t = Tensor(s);
}

}  // namespace pf15::nn
