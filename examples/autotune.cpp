// Hyper-parameter autotuning (§VIII-B): the paper argues scientists should
// not hand-tune learning rates and momenta, citing Spearmint [49] and
// principled momentum tuning [48]. This example shows both levels on the
// real HEP training loop:
//   1. successive-halving search over (learning rate, momentum, batch) —
//      many cheap short runs racing, survivors trained longer;
//   2. YellowFin closing the loop online: no search at all, momentum and
//      learning rate are derived from running gradient statistics.
// Level 0 goes below the training loop: the convolution backend registry
// (im2col / Winograd / sub-pixel) exposed as a tune::Space,
// searched with the same machinery, and compared against the plan cache's
// pick.
#include <cstdio>
#include <vector>

#include "data/hep_generator.hpp"
#include "data/loader.hpp"
#include "gemm/conv_backend.hpp"
#include "hybrid/trainable.hpp"
#include "solver/solver.hpp"
#include "tune/conv_space.hpp"
#include "tune/search.hpp"
#include "tune/yellowfin.hpp"

using namespace pf15;

namespace {

/// Trains the tiny HEP net for `iters` iterations with the given
/// hyper-parameters and returns the mean loss of the final quarter.
double train_loss(double lr, double momentum, std::size_t batch,
                  std::size_t iters) {
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 32;
  data::HepGenerator gen(gen_cfg, /*stream=*/7);
  hybrid::HepTrainable model(nn::HepConfig::tiny());
  solver::SgdSolver sgd(model.params(), lr, momentum);

  double tail = 0.0;
  std::size_t tail_n = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    std::vector<data::Sample> ss;
    std::vector<const data::Sample*> ptrs;
    for (std::size_t k = 0; k < batch; ++k) {
      const auto ev = gen.generate(k % 2 == 0);
      ss.push_back({ev.image.clone(), ev.label, true, {}});
    }
    for (const auto& s : ss) ptrs.push_back(&s);
    const double loss = model.train_step(data::make_batch(ptrs));
    sgd.step();
    if (i >= (3 * iters) / 4) {
      tail += loss;
      ++tail_n;
    }
  }
  return tail / static_cast<double>(tail_n);
}

}  // namespace

int main() {
  // ---- Level 0: convolution-backend autotuning --------------------------
  // The kernel the training loop spends its time in is itself a tuning
  // problem. grid_search over the backend space IS the plan-cache
  // micro-benchmark, just driven through the generic searcher.
  {
    gemm::ConvProblem p;  // the HEP nets' 3x3/1 conv at pooled resolution
    p.geom.in_c = 128;
    p.geom.in_h = p.geom.in_w = 28;
    p.geom.kernel_h = p.geom.kernel_w = 3;
    p.geom.stride_h = p.geom.stride_w = 1;
    p.geom.pad_h = p.geom.pad_w = 1;
    p.out_c = 128;

    std::printf("tuning convolution backend for 128x128 3x3 @ 28x28...\n");
    gemm::AutotuneOptions opt;
    opt.reps = 2;
    const auto space = tune::conv_backend_space(p);
    const auto result = tune::grid_search(
        space, tune::conv_backend_objective(p, opt), /*per_dim=*/1);
    for (const auto& trial : result.trials) {
      std::printf("  %-8s %10.1f us/img\n",
                  gemm::to_string(tune::decode_backend(trial.config)),
                  trial.loss);
    }
    // Same AutotuneOptions as the grid search, so the two winners differ
    // only if the timings themselves do — not the measurement config.
    gemm::ConvPlanCache cache(opt);
    const auto plan = cache.plan(p);
    std::printf("grid search winner: %s; plan cache winner: %s "
                "(%.2fx vs im2col)\n",
                gemm::to_string(tune::decode_backend(result.best.config)),
                gemm::to_string(plan.kind),
                plan.best_us > 0 ? plan.im2col_us / plan.best_us : 0.0);
    // Training tunes the two backward phases independently — the best
    // forward backend is routinely not the best gradient backend.
    for (const auto phase : {gemm::ConvPhase::kBackwardData,
                             gemm::ConvPhase::kBackwardFilter}) {
      const auto bwd = cache.plan(p, phase);
      std::printf("%-16s winner: %s (%.2fx vs im2col adjoint)\n",
                  gemm::to_string(phase), gemm::to_string(bwd.kind),
                  bwd.best_us > 0 ? bwd.im2col_us / bwd.best_us : 0.0);
    }
    std::printf("\n");
  }

  // ---- Level 1: successive halving over the search space ----------------
  tune::Space space;
  space.add(tune::Dimension::log("lr", 1e-4, 1e-1));
  space.add(tune::Dimension::linear("momentum", 0.0, 0.95));
  space.add(tune::Dimension::discrete("batch", {4, 8, 16}));

  tune::HalvingConfig halving;
  halving.initial_arms = 8;
  halving.initial_budget = 6;  // iterations for the first rung
  halving.seed = 3;

  std::printf("searching %zu-dimensional space with successive halving...\n",
              space.size());
  const auto result = tune::successive_halving(
      space,
      [](const tune::Config& c, std::size_t budget) {
        return train_loss(c.at("lr"), c.at("momentum"),
                          static_cast<std::size_t>(c.at("batch")), budget);
      },
      halving);

  std::printf("evaluated %zu trials, total budget %zu iterations\n",
              result.trials.size(), result.total_budget);
  std::printf("best: lr=%.2e momentum=%.2f batch=%zu -> loss %.4f\n\n",
              result.best.config.at("lr"), result.best.config.at("momentum"),
              static_cast<std::size_t>(result.best.config.at("batch")),
              result.best.loss);

  // ---- Level 2: YellowFin, no search -------------------------------------
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 32;
  data::HepGenerator gen(gen_cfg, 9);
  hybrid::HepTrainable model(nn::HepConfig::tiny());
  std::size_t dim = 0;
  for (auto& p : model.params()) dim += p.value->numel();

  tune::YellowFinOptions yf_opt;
  yf_opt.beta = 0.99;
  yf_opt.learning_rate_init = 1e-3;
  tune::YellowFin yf(dim, yf_opt);
  solver::SgdSolver sgd(model.params(), yf_opt.learning_rate_init, 0.0);

  std::vector<float> flat(dim);
  std::printf("YellowFin online tuning (momentum and lr from gradient "
              "statistics):\n");
  for (int i = 0; i < 48; ++i) {
    std::vector<data::Sample> ss;
    std::vector<const data::Sample*> ptrs;
    for (int k = 0; k < 8; ++k) {
      const auto ev = gen.generate(k % 2 == 0);
      ss.push_back({ev.image.clone(), ev.label, true, {}});
    }
    for (const auto& s : ss) ptrs.push_back(&s);
    const double loss = model.train_step(data::make_batch(ptrs));

    std::size_t off = 0;
    for (auto& p : model.params()) {
      const float* g = p.grad->data();
      std::copy(g, g + p.grad->numel(), flat.begin() + off);
      off += p.grad->numel();
    }
    yf.observe(flat);
    sgd.set_learning_rate(yf.learning_rate());
    sgd.set_momentum(yf.momentum());
    sgd.step();

    if (i % 8 == 7) {
      std::printf("  iter %2d  loss %.4f  lr %.3e  momentum %.3f\n", i + 1,
                  loss, yf.learning_rate(), yf.momentum());
    }
  }
  std::printf("\nThe hybrid trainer composes this with the asynchrony "
              "correction of [31]:\n"
              "explicit momentum = tuned_momentum_for_groups(target, "
              "groups).\n");
  return 0;
}
