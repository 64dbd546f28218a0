// Convolution-backend selection as a tune::Space problem.
//
// The kernel autotuner (gemm::ConvPlanCache) and the hyper-parameter
// searchers solve the same problem at different altitudes: pick the
// argmin of a measured objective over a discrete space. This adapter
// exposes the backend choice for one convolution problem as a
// one-dimensional Space so the generic searchers (grid, random,
// successive halving) can drive the same micro-benchmark the plan cache
// uses — and so examples/autotune.cpp can demonstrate kernel-level tuning
// next to learning-rate tuning.
#pragma once

#include "gemm/conv_backend.hpp"
#include "tune/search.hpp"
#include "tune/space.hpp"

namespace pf15::tune {

/// Dimension name used by conv_backend_space.
inline constexpr const char* kConvBackendDim = "backend";

/// One discrete dimension "backend" whose choices encode the
/// gemm::ConvBackendKind values applicable to `p` in `phase` (as doubles,
/// the Space currency) — the same candidates autotune() races.
Space conv_backend_space(
    const gemm::ConvProblem& p,
    gemm::ConvPhase phase = gemm::ConvPhase::kForward);

/// Objective: measured per-image microseconds of the encoded backend on
/// `p` in `phase` (lower is better), via gemm::benchmark_backend with the
/// same deterministic operands the plan cache tunes on.
Objective conv_backend_objective(
    const gemm::ConvProblem& p, const gemm::AutotuneOptions& opt = {},
    gemm::ConvPhase phase = gemm::ConvPhase::kForward);

/// Decodes a searcher's winning config back to a backend kind. Throws
/// pf15::Error for a code that names no registered backend (e.g. the
/// retired value 2).
gemm::ConvBackendKind decode_backend(const Config& config);

/// Runs grid search over conv_backend_space and installs the winner into
/// `cache` as the plan for `p` in `phase`. Returns the winning plan.
gemm::ConvPlan tune_conv_backend(
    const gemm::ConvProblem& p, gemm::ConvPlanCache& cache,
    const gemm::AutotuneOptions& opt = {},
    gemm::ConvPhase phase = gemm::ConvPhase::kForward);

}  // namespace pf15::tune
