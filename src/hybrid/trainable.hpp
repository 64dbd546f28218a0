// Model adapters that give the hybrid trainer a uniform view of the two
// paper applications: one train_step() that runs forward+backward on a
// batch, accumulates parameter gradients, and reports the batch loss.
#pragma once

#include <functional>
#include <memory>

#include "data/loader.hpp"
#include "nn/climate_net.hpp"
#include "nn/hep_model.hpp"
#include "nn/losses.hpp"

namespace pf15::hybrid {

class TrainableModel {
 public:
  virtual ~TrainableModel() = default;

  /// Forward + backward on `batch`; parameter gradients accumulate (caller
  /// zeroes). Returns the mean batch loss.
  virtual double train_step(const data::Batch& batch) = 0;

  virtual std::vector<nn::Param> params() = 0;

  /// Enables per-layer wall/FLOP profiling inside train_step (the Fig 5
  /// measurement path). Off by default: the timers cost a little.
  void set_profile(bool profile) { profile_ = profile; }
  bool profiling() const { return profile_; }

 protected:
  bool profile_ = false;
};

using ModelFactory = std::function<std::unique_ptr<TrainableModel>()>;

/// Supplies the batch a given worker trains on at a given iteration.
/// Must be thread-safe across workers.
using BatchSource =
    std::function<data::Batch(int worker_rank, std::size_t iteration)>;

/// HEP: Sequential CNN + softmax cross-entropy (§III-A).
class HepTrainable final : public TrainableModel {
 public:
  explicit HepTrainable(const nn::HepConfig& cfg)
      : net_(nn::build_hep_network(cfg)) {}

  double train_step(const data::Batch& batch) override {
    const Tensor& logits = net_.forward(batch.images, profile_);
    const double batch_loss =
        loss_.forward_backward(logits, batch.labels, probs_, dlogits_);
    net_.backward_params(batch.images, dlogits_, profile_);
    return batch_loss;
  }

  std::vector<nn::Param> params() override { return net_.params(); }

  nn::Sequential& net() { return net_; }
  /// Signal-class probability per sample of the latest forward.
  const Tensor& probs() const { return probs_; }

 private:
  nn::Sequential net_;
  nn::SoftmaxCrossEntropy loss_;
  Tensor probs_;
  Tensor dlogits_;
};

/// Climate: semi-supervised detection network + composite loss (§III-B).
class ClimateTrainable final : public TrainableModel {
 public:
  ClimateTrainable(const nn::ClimateConfig& cfg,
                   const nn::ClimateLossConfig& loss_cfg = {})
      : net_(cfg), loss_(loss_cfg) {}

  double train_step(const data::Batch& batch) override {
    std::vector<nn::ClimateTarget> targets(batch.labels.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      targets[i].boxes = batch.boxes[i];
      targets[i].labeled = batch.labeled[i];
    }
    const auto& out = net_.forward(batch.images, profile_);
    last_parts_ = loss_.compute(out, batch.images, targets, grads_);
    net_.backward(batch.images, grads_, profile_);
    return last_parts_.total();
  }

  std::vector<nn::Param> params() override { return net_.params(); }

  nn::ClimateNet& net() { return net_; }
  const nn::ClimateLoss::Parts& last_parts() const { return last_parts_; }

 private:
  nn::ClimateNet net_;
  nn::ClimateLoss loss_;
  nn::ClimateNet::OutputGrads grads_;
  nn::ClimateLoss::Parts last_parts_;
};

}  // namespace pf15::hybrid
