// Sequential network container.
//
// Owns the layers and the inter-layer activations, runs forward/backward
// end to end, and keeps per-layer wall-clock so the Fig-5-style profiles
// come straight out of training runs. Parameter access is flattened into a
// contiguous ordering that the communication layer (all-reduce, PS) relies
// on being identical on every rank.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace pf15::nn {

/// Per-layer profile record (accumulated across iterations).
struct LayerProfile {
  std::string name;
  std::string kind;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  std::uint64_t forward_flops = 0;
  std::uint64_t backward_flops = 0;
};

class Sequential {
 public:
  Sequential() = default;

  Sequential(Sequential&&) noexcept = default;
  Sequential& operator=(Sequential&&) noexcept = default;

  /// Appends a layer; returns a reference to it for further wiring.
  Layer& add(LayerPtr layer);

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Output shape of the whole stack for a given input shape.
  Shape output_shape(const Shape& in) const;

  /// Runs all layers; returns the final activation (owned by the network,
  /// valid until the next forward). When `profile` is true, per-layer
  /// timings/FLOPs accumulate into profiles().
  const Tensor& forward(const Tensor& input, bool profile = false);

  /// Backpropagates `dout` (gradient w.r.t. the last forward's output).
  /// Parameter gradients accumulate. Returns gradient w.r.t. the input.
  const Tensor& backward(const Tensor& input, const Tensor& dout,
                         bool profile = false);

  /// backward() for a trainer, whose input is data: the first layer
  /// skips its input gradient (Layer::backward_params). Parameter
  /// gradients are bit-identical to backward()'s.
  void backward_params(const Tensor& input, const Tensor& dout,
                       bool profile = false);

  /// All trainable parameters in deterministic (layer, param) order.
  std::vector<Param> params();
  /// Non-trainable state (BatchNorm running statistics, ...) in the same
  /// deterministic order; null grads.
  std::vector<Param> state();
  /// params() followed by state() — the canonical checkpoint entry order.
  /// Every (de)serialisation path must use this so layouts stay in sync.
  std::vector<Param> params_and_state();
  std::size_t param_count();
  /// Parameter footprint in bytes (Table II's "parameters size").
  std::size_t param_bytes() { return param_count() * sizeof(float); }

  /// Propagates training/inference mode to every layer: inference mode
  /// makes BatchNorm use running estimates and Dropout the identity.
  void set_training(bool training);
  bool training() const { return training_; }

  void zero_grad();

  std::uint64_t forward_flops(const Shape& in) const;
  std::uint64_t backward_flops(const Shape& in) const;

  const std::vector<LayerProfile>& profiles() const { return profiles_; }
  void reset_profiles();

  /// Serialise / restore all parameter values and non-trainable state (not
  /// solver state). The stream is a validated named-tensor stream (see
  /// save_named_tensors); load fails with IoError on any mismatch instead
  /// of silently misreading.
  void save_params(std::ostream& os);
  void load_params(std::istream& is);

 private:
  /// Layers last to first; layer 0 runs backward_params() unless
  /// `input_grad`.
  const Tensor& run_backward(const Tensor& input, const Tensor& dout,
                             bool profile, bool input_grad);

  std::vector<LayerPtr> layers_;
  std::vector<Tensor> activations_;  // activations_[i] = output of layer i
  std::vector<Tensor> grads_;        // grads_[i] = dL/d activations_[i-1]
  std::vector<LayerProfile> profiles_;
  bool training_ = true;
};

/// Writes `entries` as a self-describing stream: magic, format version,
/// entry count, then (name, tensor) records. The symmetric reader below
/// validates every field, so a stream written for one architecture can
/// never be silently loaded into another.
void save_named_tensors(std::ostream& os, const std::vector<Param>& entries);

/// Reads a stream produced by save_named_tensors into `entries` (values
/// are copied into each Param's tensor). Throws pf15::IoError naming the
/// first mismatching entry on bad magic/version/count/name/shape or a
/// short stream.
void load_named_tensors(std::istream& is, const std::vector<Param>& entries);

}  // namespace pf15::nn
