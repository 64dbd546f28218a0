#include "tune/conv_space.hpp"

#include <cmath>

namespace pf15::tune {

Space conv_backend_space(const gemm::ConvProblem& p,
                         gemm::ConvPhase phase) {
  std::vector<double> choices;
  for (const gemm::ConvBackend* b : gemm::applicable_backends(p, phase)) {
    choices.push_back(static_cast<double>(static_cast<int>(b->kind())));
  }
  Space space;
  space.add(Dimension::discrete(kConvBackendDim, std::move(choices)));
  return space;
}

Objective conv_backend_objective(const gemm::ConvProblem& p,
                                 const gemm::AutotuneOptions& opt,
                                 gemm::ConvPhase phase) {
  return [p, opt, phase](const Config& config) {
    const gemm::ConvBackendKind kind = decode_backend(config);
    return gemm::benchmark_backend(gemm::backend(kind), p, opt, phase);
  };
}

gemm::ConvBackendKind decode_backend(const Config& config) {
  const auto it = config.find(kConvBackendDim);
  PF15_CHECK_MSG(it != config.end(),
                 "config lacks a '" << kConvBackendDim << "' dimension");
  const long raw = std::lround(it->second);
  for (const gemm::ConvBackend* b : gemm::all_backends()) {
    if (static_cast<long>(b->kind()) == raw) return b->kind();
  }
  PF15_CHECK_MSG(false,
                 "backend code " << raw << " names no registered backend");
  return gemm::ConvBackendKind::kIm2col;  // unreachable
}

gemm::ConvPlan tune_conv_backend(const gemm::ConvProblem& p,
                                 gemm::ConvPlanCache& cache,
                                 const gemm::AutotuneOptions& opt,
                                 gemm::ConvPhase phase) {
  const Space space = conv_backend_space(p, phase);
  const SearchResult result =
      grid_search(space, conv_backend_objective(p, opt, phase),
                  /*per_dim=*/1);
  gemm::ConvPlan plan;
  plan.kind = decode_backend(result.best.config);
  plan.best_us = result.best.loss;
  plan.tuned = true;
  for (const TrialResult& trial : result.trials) {
    if (decode_backend(trial.config) == gemm::ConvBackendKind::kIm2col) {
      plan.im2col_us = trial.loss;
    }
  }
  cache.insert(p, phase, plan);
  return plan;
}

}  // namespace pf15::tune
