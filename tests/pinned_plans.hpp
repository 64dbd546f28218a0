// Pins a convolution backend through the process-wide plan cache, so a
// kAuto layer dispatches to it without timing a race. This is how tests
// run a backend that has no nn::ConvAlgo forcing value (sub-pixel).
#pragma once

#include "gemm/conv_backend.hpp"

namespace pf15::testing {

/// Inserts a `kind` override for every phase of `p` into
/// gemm::ConvPlanCache::global(). The destructor clears the global cache,
/// so no pinned plan outlives the test.
class PinnedConvPlans {
 public:
  PinnedConvPlans(const gemm::ConvProblem& p, gemm::ConvBackendKind kind) {
    gemm::ConvPlan plan;
    plan.kind = kind;
    for (const gemm::ConvPhase phase : gemm::kAllConvPhases) {
      gemm::ConvPlanCache::global().insert(p, phase, plan);
    }
  }
  ~PinnedConvPlans() { gemm::ConvPlanCache::global().clear(); }
  PinnedConvPlans(const PinnedConvPlans&) = delete;
  PinnedConvPlans& operator=(const PinnedConvPlans&) = delete;
};

}  // namespace pf15::testing
