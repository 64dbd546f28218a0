// ResNet on the HEP task (§IX: "our results ... extend to other kinds of
// models such as ResNets"). Builds a small residual network with the
// pf15 layer set, trains it on the synthetic event stream, and compares
// it against the paper's plain CNN at equal parameter budget — then runs
// both through the hybrid trainer to show the distributed stack is
// model-agnostic.
#include <cstdio>
#include <memory>

#include "data/hep_generator.hpp"
#include "data/loader.hpp"
#include "hybrid/hybrid_trainer.hpp"
#include "nn/hep_model.hpp"
#include "nn/losses.hpp"
#include "nn/residual.hpp"
#include "solver/solver.hpp"

using namespace pf15;

namespace {

/// Adapts an arbitrary Sequential classifier to the hybrid trainer.
class SequentialTrainable final : public hybrid::TrainableModel {
 public:
  explicit SequentialTrainable(nn::Sequential net) : net_(std::move(net)) {}

  double train_step(const data::Batch& batch) override {
    const Tensor& logits = net_.forward(batch.images);
    const double loss =
        loss_.forward_backward(logits, batch.labels, probs_, dlogits_);
    net_.backward_params(batch.images, dlogits_);
    return loss;
  }

  std::vector<nn::Param> params() override { return net_.params(); }
  nn::Sequential& net() { return net_; }

 private:
  nn::Sequential net_;
  nn::SoftmaxCrossEntropy loss_;
  Tensor probs_;
  Tensor dlogits_;
};

data::Batch make_batch(data::HepGenerator& gen, std::size_t bs) {
  std::vector<data::Sample> ss;
  std::vector<const data::Sample*> ptrs;
  for (std::size_t k = 0; k < bs; ++k) {
    const auto ev = gen.generate(k % 2 == 0);
    ss.push_back({ev.image.clone(), ev.label, true, {}});
  }
  std::vector<data::Sample> owned = std::move(ss);
  for (const auto& s : owned) ptrs.push_back(&s);
  return data::make_batch(ptrs);
}

double evaluate_accuracy(nn::Sequential& net, data::HepGenerator& gen,
                         int n) {
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const auto ev = gen.generate(i % 2 == 0);
    data::Sample s{ev.image.clone(), ev.label, true, {}};
    const data::Batch batch = data::make_batch({&s});
    const Tensor& logits = net.forward(batch.images);
    const int pred = logits.at(1) > logits.at(0) ? 1 : 0;
    if (pred == ev.label) ++correct;
  }
  return static_cast<double>(correct) / n;
}

}  // namespace

int main() {
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 32;

  // The two contenders at comparable parameter budgets.
  nn::ResNetConfig res_cfg;
  res_cfg.in_channels = 3;
  res_cfg.stage_channels = {8, 16};
  res_cfg.blocks_per_stage = 1;
  res_cfg.seed = 5;

  nn::HepConfig cnn_cfg = nn::HepConfig::tiny();
  cnn_cfg.filters = 12;

  struct Contender {
    const char* name;
    nn::Sequential net;
  };
  Contender contenders[2] = {
      {"plain CNN (paper §III-A)", nn::build_hep_network(cnn_cfg)},
      {"ResNet (paper §IX)", nn::build_resnet(res_cfg)},
  };

  std::printf("single-process comparison, 120 iterations of ADAM:\n");
  for (auto& c : contenders) {
    data::HepGenerator train_gen(gen_cfg, 0), test_gen(gen_cfg, 1);
    solver::AdamSolver adam(c.net.params(), 2e-3);
    nn::SoftmaxCrossEntropy ce;
    Tensor probs, dlogits;
    double last_loss = 0.0;
    for (int iter = 0; iter < 120; ++iter) {
      const data::Batch batch = make_batch(train_gen, 8);
      const Tensor& logits = c.net.forward(batch.images);
      last_loss = ce.forward_backward(logits, batch.labels, probs, dlogits);
      c.net.backward_params(batch.images, dlogits);
      adam.step();
    }
    const double acc = evaluate_accuracy(c.net, test_gen, 100);
    std::printf("  %-26s %6zu params  final loss %.3f  held-out acc %.0f%%\n",
                c.name, c.net.param_count(), last_loss, 100.0 * acc);
  }

  // The distributed stack is model-agnostic: run the ResNet under the
  // hybrid trainer with 2 compute groups and per-layer parameter servers.
  std::printf("\nhybrid training of the ResNet (2 groups, per-layer PS):\n");
  hybrid::HybridConfig hy;
  hy.num_workers = 4;
  hy.num_groups = 2;
  hy.iterations = 6;
  hy.solver = hybrid::SolverKind::kAdam;
  hy.learning_rate = 2e-3;

  auto gen = std::make_shared<data::HepGenerator>(gen_cfg, 3);
  auto mutex = std::make_shared<std::mutex>();
  hybrid::HybridTrainer trainer(
      hy,
      [&] {
        return std::make_unique<SequentialTrainable>(
            nn::build_resnet(res_cfg));
      },
      [gen, mutex](int, std::size_t) {
        std::lock_guard<std::mutex> lock(*mutex);
        std::vector<data::Sample> ss;
        std::vector<const data::Sample*> ptrs;
        for (int k = 0; k < 4; ++k) {
          const auto ev = gen->generate(k % 2 == 0);
          ss.push_back({ev.image.clone(), ev.label, true, {}});
        }
        std::vector<data::Sample> owned = std::move(ss);
        for (const auto& s : owned) ptrs.push_back(&s);
        return data::make_batch(ptrs);
      });
  const auto result = trainer.run();
  for (const auto& rec : result.records) {
    std::printf("  group %d iter %zu  loss %.3f  staleness %llu\n",
                rec.group, rec.iteration, rec.loss,
                static_cast<unsigned long long>(rec.max_staleness));
  }
  std::printf("mean PS staleness: %.2f\n", result.staleness.mean());
  return 0;
}
