// Semi-supervised climate architecture (§III-B, Table II).
//
// A shared strided-convolution encoder produces a coarse feature grid. Four
// small convolution heads predict, at every grid cell, the paper's four
// scores: box confidence, class, (x, y) of the bottom-left corner, and
// (w, h). A deconvolutional decoder reconstructs the input from the same
// coarse features, so unlabeled images still train the encoder through the
// reconstruction term — that is the semi-supervised coupling.
//
// With the paper's 768x768x16 input and our width schedule
// {128, 256, 512, 768, 1024} (5x5/2 encoder convs, 6x6/2 decoder deconvs)
// the model has ~82M parameters ≈ 313 MiB, reproducing the scale of
// Table II's 302.1 MiB (the paper does not publish exact widths; see
// DESIGN.md).
#pragma once

#include <memory>
#include <vector>

#include "nn/boxes.hpp"
#include "nn/conv2d.hpp"
#include "nn/deconv2d.hpp"
#include "nn/network.hpp"

namespace pf15::nn {

struct ClimateConfig {
  std::size_t image = 768;   // square input
  std::size_t channels = 16; // climate variables (TMQ, U850, ...)
  std::size_t classes = 4;   // TC, ETC, AR, TD
  std::vector<std::size_t> widths = {128, 256, 512, 768, 1024};
  std::size_t enc_kernel = 5;  // stride-2, pad (k-1)/2
  std::size_t dec_kernel = 6;  // stride-2, pad 2 -> exact doubling
  std::size_t head_kernel = 3;
  std::uint64_t seed = 4321;
  /// Convolution dispatch for the encoder, heads and decoder. kAuto by
  /// default (see HepConfig::algo); force kIm2col for the bit-stable
  /// reference baseline.
  ConvAlgo algo = ConvAlgo::kAuto;

  /// Downscaled config for tests and laptop-speed training.
  static ClimateConfig tiny() {
    ClimateConfig c;
    c.image = 32;
    c.channels = 4;
    c.classes = 2;
    c.widths = {8, 12, 16};
    return c;
  }

  std::size_t levels() const { return widths.size(); }
  /// Side of the coarse feature grid (image / 2^levels).
  std::size_t grid() const { return image >> levels(); }
};

/// Ground truth for one climate image. `labeled == false` marks the
/// unlabeled stream: only the reconstruction term applies.
struct ClimateTarget {
  std::vector<Box> boxes;
  bool labeled = true;
};

class ClimateNet {
 public:
  /// Network outputs for one forward pass. All detection maps live on the
  /// (grid x grid) coarse resolution; recon matches the input.
  struct Outputs {
    Tensor conf;   // (N, 1, G, G) confidence logits
    Tensor cls;    // (N, classes, G, G) class logits
    Tensor xy;     // (N, 2, G, G) corner-offset logits
    Tensor wh;     // (N, 2, G, G) size logits (sigmoid -> sqrt scale)
    Tensor recon;  // (N, channels, H, W) reconstruction
  };

  /// Gradients w.r.t. every output, same shapes as Outputs.
  struct OutputGrads {
    Tensor conf, cls, xy, wh, recon;
  };

  explicit ClimateNet(const ClimateConfig& cfg);

  const ClimateConfig& config() const { return cfg_; }

  const Outputs& forward(const Tensor& input, bool profile = false);
  /// Backprop through heads + decoder into the shared encoder. Parameter
  /// gradients accumulate; the input gradient is never computed (inputs
  /// are data).
  void backward(const Tensor& input, const OutputGrads& grads,
                bool profile = false);

  std::vector<Param> params();
  /// Non-trainable state across all parts, in the same part order as
  /// params() (encoder, heads, decoder).
  std::vector<Param> state();
  /// params() followed by state() — the canonical checkpoint entry order.
  std::vector<Param> params_and_state();
  std::size_t param_count();
  std::size_t param_bytes() { return param_count() * sizeof(float); }
  void zero_grad();

  /// Propagates training/inference mode to the encoder, heads and decoder.
  void set_training(bool training);

  std::uint64_t forward_flops(const Shape& in) const;
  std::uint64_t backward_flops(const Shape& in) const;

  /// Per-layer profiles spanning encoder, heads and decoder.
  std::vector<LayerProfile> profiles() const;

  void save_params(std::ostream& os);
  void load_params(std::istream& is);

  Sequential& encoder() { return encoder_; }
  Sequential& decoder() { return decoder_; }
  Sequential& conf_head() { return conf_head_; }
  Sequential& cls_head() { return cls_head_; }
  Sequential& xy_head() { return xy_head_; }
  Sequential& wh_head() { return wh_head_; }
  /// True when *any* part still runs training behaviour — the mutable
  /// part accessors above can desynchronise the parts, and consumers
  /// gating on inference mode (the graph compiler) must refuse a
  /// partially-training net.
  bool training() const {
    return encoder_.training() || decoder_.training() ||
           conf_head_.training() || cls_head_.training() ||
           xy_head_.training() || wh_head_.training();
  }

 private:
  ClimateConfig cfg_;
  Sequential encoder_;
  Sequential decoder_;
  // Heads are one conv each (the paper: "a convolution layer for each
  // score"). Kept as Sequentials so they self-manage activations.
  Sequential conf_head_, cls_head_, xy_head_, wh_head_;
  Outputs outputs_;
  Tensor features_;       // encoder output (copy; heads read it)
  Tensor dfeatures_;      // accumulated gradient at the feature grid
};

/// Weights of the five loss terms in the §III-B objective.
struct ClimateLossConfig {
  float lambda_obj = 5.0f;     // confidence at object cells
  float lambda_noobj = 0.5f;   // confidence elsewhere
  float lambda_class = 1.0f;   // class CE at object cells
  float lambda_geom = 5.0f;    // corner + size regression
  float lambda_recon = 1.0f;   // autoencoder term
};

/// Computes the combined loss and all output gradients for a batch.
class ClimateLoss {
 public:
  explicit ClimateLoss(const ClimateLossConfig& cfg = {}) : cfg_(cfg) {}

  struct Parts {
    double obj = 0, noobj = 0, cls = 0, geom = 0, recon = 0;
    double total() const { return obj + noobj + cls + geom + recon; }
  };

  /// `input` is the original image batch (reconstruction target).
  Parts compute(const ClimateNet::Outputs& out, const Tensor& input,
                const std::vector<ClimateTarget>& targets,
                ClimateNet::OutputGrads& grads) const;

  const ClimateLossConfig& config() const { return cfg_; }

 private:
  ClimateLossConfig cfg_;
};

/// Decode per-image box predictions from network outputs: keep cells with
/// sigmoid(confidence) > threshold (the paper keeps > 0.8 at inference).
std::vector<std::vector<Box>> decode_boxes(const ClimateNet::Outputs& out,
                                           float threshold);

}  // namespace pf15::nn
