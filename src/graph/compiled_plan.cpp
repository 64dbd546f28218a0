#include "graph/compiled_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/task_scheduler.hpp"
#include "common/timer.hpp"
#include "graph/validate.hpp"
#include "gemm/gemm.hpp"
#include "nn/elementwise.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pf15::graph {

namespace {

/// In-place fused epilogue, applied per image right after the producing
/// kernel while the output is cache-hot. The formulas match the eager
/// activation layers exactly.
void apply_epilogue(Epilogue e, float* x, std::size_t n) {
  switch (e) {
    case Epilogue::kNone:
      return;
    case Epilogue::kRelu:
      for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
      return;
    case Epilogue::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = 1.0f / (1.0f + std::exp(-x[i]));
      }
      return;
    case Epilogue::kTanh:
      for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      return;
  }
}

}  // namespace

TaskScheduler& CompiledPlan::sched() const {
  return scheduler_ != nullptr ? *scheduler_ : TaskScheduler::global();
}

CompiledPlan::CompiledPlan(Graph graph, const CompileOptions& opt)
    : graph_(std::move(graph)), scheduler_(opt.scheduler) {
  WallTimer compile_timer;
  obs::TraceSpan compile_span("compile", "compile");
  report_.captured_ops = graph_.nodes.size();
  {
    obs::TraceSpan span("passes", "compile");
    if (opt.strip_noops) {
      report_.passes.stripped_noops = graph::strip_noops(graph_);
#ifndef NDEBUG
      check_valid(graph_, "strip_noops");
#endif
    }
    if (opt.fold_batchnorm) {
      report_.passes.folded_batchnorms =
          graph::fold_batchnorm(graph_, &report_.passes);
#ifndef NDEBUG
      check_valid(graph_, "fold_batchnorm");
#endif
    }
    if (opt.fuse_activations) {
      report_.passes.fused_activations =
          graph::fuse_activations(graph_, &report_.passes);
#ifndef NDEBUG
      check_valid(graph_, "fuse_activations");
#endif
    }
  }
  report_.compiled_ops = graph_.nodes.size();
  {
    obs::TraceSpan span("plan_arena", "compile");
    arena_plan_ = plan_arena(graph_);
  }
#ifndef NDEBUG
  // Debug builds re-prove the planner's work: liveness is re-derived from
  // the edges inside validate(), independent of plan_arena's bookkeeping.
  check_valid(graph_, "plan_arena", &arena_plan_);
#endif
  report_.arena_floats_per_sample = arena_plan_.total_floats;
  report_.eager_floats_per_sample = arena_plan_.eager_floats;
  build_schedule(opt.parallel_levels);
  opaque_in_.resize(graph_.nodes.size());
  opaque_out_.resize(graph_.nodes.size());
  dispatch_.resize(graph_.nodes.size());
  // Which result tensor an external node writes into (first listing wins
  // when an output is named twice). Outputs resolve through split
  // aliases: the slot belongs to the node that owns the value.
  output_slot_.assign(graph_.nodes.size(), -1);
  for (std::size_t k = 0; k < graph_.outputs.size(); ++k) {
    const int o = graph_.resolve_alias(graph_.outputs[k]);
    if (o >= 0 && arena_plan_.external[static_cast<std::size_t>(o)] &&
        output_slot_[static_cast<std::size_t>(o)] < 0) {
      output_slot_[static_cast<std::size_t>(o)] = static_cast<int>(k);
    }
  }
  if (opt.pretune) {
    WallTimer pretune_timer;
    obs::TraceSpan span("pretune", "compile");
    pretune_convs();
    report_.pretune_seconds = pretune_timer.seconds();
  }
  report_.compile_seconds = compile_timer.seconds();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("pf15_graph_compiles_total", "CompiledPlan constructions")
      .add(1);
  reg.histogram("pf15_graph_compile_seconds",
                obs::Histogram::exponential_bounds(1e-4, 4.0, 12),
                "CompiledPlan construction wall time")
      .observe(report_.compile_seconds);
}

void CompiledPlan::build_schedule(bool parallel_levels) {
  parallel_levels_ = parallel_levels;
  schedule_.clear();
  const std::vector<int> level = graph_.levels();
  int max_level = -1;
  for (std::size_t i = 0; i < graph_.nodes.size(); ++i) {
    if (graph_.nodes[i].kind == OpKind::kSplit) continue;  // no work
    max_level = std::max(max_level, level[i]);
  }
  schedule_.resize(static_cast<std::size_t>(max_level + 1));
  for (std::size_t i = 0; i < graph_.nodes.size(); ++i) {
    const OpNode& node = graph_.nodes[i];
    if (node.kind == OpKind::kSplit) continue;
    Level& lvl = schedule_[static_cast<std::size_t>(level[i])];
    // Nested waits are legal on the scheduler, so every known node kind
    // may run inside a wide-level task. Opaque nodes run a live
    // extension layer whose forward we cannot inspect: it joins a wide
    // level only when it opts in via Layer::parallel_ok().
    if (node.kind == OpKind::kOpaque &&
        !(node.layer != nullptr && node.layer->parallel_ok())) {
      lvl.serial.push_back(i);
    } else {
      lvl.parallel.push_back(i);
    }
  }
  report_.levels = schedule_.size();
  report_.max_level_width = 0;
  report_.wide_level_nodes = 0;
  for (const Level& lvl : schedule_) {
    report_.max_level_width = std::max(
        report_.max_level_width, lvl.parallel.size() + lvl.serial.size());
    if (lvl.parallel.size() > 1) {
      report_.wide_level_nodes += lvl.parallel.size();
    }
  }
  level_names_.clear();
  level_names_.reserve(schedule_.size());
  for (std::size_t l = 0; l < schedule_.size(); ++l) {
    level_names_.push_back("level" + std::to_string(l));
  }
}

void CompiledPlan::pretune_convs() {
  gemm::ConvPlanCache& cache = gemm::ConvPlanCache::global();
  const std::uint64_t misses_before = cache.misses();
  for (std::size_t i = 0; i < graph_.nodes.size(); ++i) {
    const OpNode& node = graph_.nodes[i];
    gemm::ConvPhase phase = gemm::ConvPhase::kForward;
    if (node.kind == OpKind::kDeconv) {
      phase = gemm::ConvPhase::kBackwardData;  // deconv forward runs it
    } else if (node.kind != OpKind::kConv) {
      continue;
    }
    if (node.algo != nn::ConvAlgo::kAuto) continue;  // forced: no tuning
    cache.plan(node.problem, phase);
    ++report_.pretuned_plans;
  }
  report_.pretune_misses =
      static_cast<std::size_t>(cache.misses() - misses_before);
}

const float* CompiledPlan::edge_data(int e, const Tensor& input,
                                     std::size_t batch) {
  const int r = graph_.resolve_alias(e);
  if (r < 0) return input.data();
  const std::size_t s = static_cast<std::size_t>(r);
  // External values have zero node consumers by construction, so every
  // edge read lands in the arena.
  PF15_CHECK(!arena_plan_.external[s]);
  return arena_.data() + arena_plan_.offsets[s] * batch;
}

const std::vector<Tensor>& CompiledPlan::run_all(const Tensor& input) {
  PF15_CHECK_MSG(input.shape().rank() >= 1 &&
                     strip_batch(input.shape()) == graph_.input_sample,
                 "CompiledPlan::run: input " << input.shape()
                                             << " does not batch samples of "
                                             << graph_.input_sample);
  const std::size_t batch = input.shape()[0];
  PF15_CHECK(batch >= 1);
  const std::size_t need = arena_plan_.total_floats * batch;
  if (arena_.size() < need) arena_.resize(need);

  // Result tensors first: external nodes write straight into them.
  outputs_.resize(graph_.outputs.size());
  for (std::size_t k = 0; k < graph_.outputs.size(); ++k) {
    const int o = graph_.outputs[k];
    const Shape& sample =
        o == OpNode::kGraphInput
            ? graph_.input_sample
            : graph_.nodes[static_cast<std::size_t>(o)].out_sample;
    nn::ensure_shape(outputs_[k], with_batch(sample, batch));
  }

  // Level-scheduled execution: levels run in order with a barrier after
  // each, so every node reads fully-written producer buffers. Within a
  // level the nodes are independent by construction; a wide level spawns
  // one task per node with a TaskSync continuation barrier — wait()
  // executes pending work, so each node task is free to fan its batch
  // across per-image child tasks (node×batch product parallelism).
  //
  // Under PF15_TRACE every level and every node gets a span: wide-level
  // imbalance (one straggler node pinning the barrier) and serial opaque
  // stragglers are visible in the trace instead of folded into one
  // end-to-end number.
  obs::TraceSpan run_span("plan_run", "graph");
  static obs::Counter& executions = obs::MetricsRegistry::global().counter(
      "pf15_graph_executions_total", "CompiledPlan batched runs");
  executions.add(1);
  for (std::size_t l = 0; l < schedule_.size(); ++l) {
    const Level& lvl = schedule_[l];
    obs::TraceSpan level_span(
        obs::trace_enabled() ? level_names_[l] : std::string(), "graph");
    for (std::size_t id : lvl.serial) {
      execute_node(id, input, batch);
    }
    if (parallel_levels_ && lvl.parallel.size() > 1) {
      TaskScheduler& scheduler = sched();
      TaskSync level_done;
      for (std::size_t id : lvl.parallel) {
        scheduler.spawn(level_done, [this, id, &input, batch] {
          execute_node(id, input, batch);
        });
      }
      scheduler.wait(level_done);  // the per-level barrier; helps
    } else {
      for (std::size_t id : lvl.parallel) {
        execute_node(id, input, batch);
      }
    }
  }

  // Non-external outputs (still read by other nodes, an output listed
  // twice, or the graph input itself) are copied out of their buffer.
  for (std::size_t k = 0; k < graph_.outputs.size(); ++k) {
    const int o = graph_.resolve_alias(graph_.outputs[k]);
    if (o >= 0 && arena_plan_.external[static_cast<std::size_t>(o)]) {
      const int slot = output_slot_[static_cast<std::size_t>(o)];
      if (slot == static_cast<int>(k)) continue;  // produced in place
      outputs_[k].copy_from(outputs_[static_cast<std::size_t>(slot)]);
      continue;
    }
    std::memcpy(outputs_[k].data(), edge_data(o, input, batch),
                outputs_[k].numel() * sizeof(float));
  }
  return outputs_;
}

const CompiledPlan::ConvDispatch& CompiledPlan::conv_dispatch(
    std::size_t id, gemm::ConvPhase phase) {
  ConvDispatch& d = dispatch_[id];
  if (d.backend == nullptr) {
    // First run: one plan-cache resolution and one weight transform,
    // frozen for the plan's lifetime (its weights are frozen clones, and
    // a compiled plan deliberately keeps the backend it was born with).
    const OpNode& node = graph_.nodes[id];
    d.backend = &gemm::backend(
        nn::resolve_conv_backend(node.algo, node.problem, phase));
    d.prep = phase == gemm::ConvPhase::kForward
                 ? d.backend->prepare_forward(node.problem,
                                              node.weight.data())
                 : d.backend->prepare_backward_data(node.problem,
                                                    node.weight.data());
  }
  return d;
}

const Tensor& CompiledPlan::run(const Tensor& input) {
  PF15_CHECK_MSG(graph_.outputs.size() == 1,
                 "CompiledPlan::run: graph has " << graph_.outputs.size()
                                                 << " outputs; use run_all");
  return run_all(input)[0];
}

void CompiledPlan::execute_node(std::size_t id, const Tensor& input,
                                std::size_t batch) {
  const OpNode& node = graph_.nodes[id];
  // Per-node span on whichever thread executes it (a scheduler worker
  // for wide levels): the node's captured name, so the trace reads like
  // the model.
  obs::TraceSpan node_span(
      obs::trace_enabled() ? node.name : std::string(), "graph");
  const float* src = node.kind == OpKind::kAdd
                         ? nullptr  // two inputs, resolved below
                         : edge_data(node.input0(), input, batch);
  float* dst =
      arena_plan_.external[id]
          ? outputs_[static_cast<std::size_t>(output_slot_[id])].data()
          : arena_.data() + arena_plan_.offsets[id] * batch;
  switch (node.kind) {
    case OpKind::kConv: {
      const gemm::ConvProblem& p = node.problem;
      // Backend and prepared weight transform (Winograd's U) come from
      // the frozen per-node memo: no plan-cache lock, no per-run filter
      // transform after the first run. A batch fans its images across
      // the scheduler as child tasks (legal even inside a wide-level node
      // task — the barrier wait helps); the backend runs each serially.
      const ConvDispatch& dispatch =
          conv_dispatch(id, gemm::ConvPhase::kForward);
      const float* bias = node.bias.defined() ? node.bias.data() : nullptr;
      const std::size_t in_img = p.geom.in_c * p.geom.in_h * p.geom.in_w;
      const std::size_t out_img = p.out_c * p.geom.lowered_cols();
      const auto one_image = [&](std::size_t img) {
        float* out = dst + img * out_img;
        dispatch.backend->forward_prepared(p, dispatch.prep.get(),
                                           src + img * in_img,
                                           node.weight.data(), bias, out);
        apply_epilogue(node.epilogue, out, out_img);
      };
      if (batch <= 1) {
        one_image(0);
      } else {
        sched().parallel_for(0, batch, one_image);
      }
      return;
    }
    case OpKind::kDeconv: {
      const gemm::ConvProblem& p = node.problem;
      // The rotated/transformed filter bank is prepared once per plan
      // (prepare_backward_data), not per image.
      const ConvDispatch& dispatch =
          conv_dispatch(id, gemm::ConvPhase::kBackwardData);
      const std::size_t in_img = node.in_sample.numel();
      const std::size_t out_img = node.out_sample.numel();
      const std::size_t out_c = node.out_sample[0];
      const std::size_t plane = p.geom.in_h * p.geom.in_w;
      const auto one_image = [&](std::size_t img) {
        float* out = dst + img * out_img;
        dispatch.backend->backward_data_prepared(p, dispatch.prep.get(),
                                                 src + img * in_img,
                                                 node.weight.data(), out);
        if (node.bias.defined()) {
          for (std::size_t oc = 0; oc < out_c; ++oc) {
            const float b = node.bias.at(oc);
            float* row = out + oc * plane;
            for (std::size_t i = 0; i < plane; ++i) row[i] += b;
          }
        }
        apply_epilogue(node.epilogue, out, out_img);
      };
      if (batch <= 1) {
        one_image(0);
      } else {
        sched().parallel_for(0, batch, one_image);
      }
      return;
    }
    case OpKind::kDense: {
      // out (batch x OF) = in (batch x IF) * W^T, same lowering as
      // nn::Dense::forward. The parallel GEMM self-limits on small work
      // and is safe at any nesting depth; its row-block partitioning
      // never changes per-element arithmetic, so serial and parallel
      // schedules stay bit-exact.
      gemm::sgemm_parallel(false, true, batch, node.out_features,
                           node.in_features, 1.0f, src, node.in_features,
                           node.weight.data(), node.in_features, 0.0f, dst,
                           node.out_features);
      for (std::size_t b = 0; b < batch; ++b) {
        float* row = dst + b * node.out_features;
        for (std::size_t j = 0; j < node.out_features; ++j) {
          row[j] += node.bias.at(j);
        }
      }
      apply_epilogue(node.epilogue, dst, batch * node.out_features);
      return;
    }
    case OpKind::kMaxPool: {
      nn::PoolGeom g;
      g.planes = batch * node.in_sample[0];
      g.ih = node.in_sample[1];
      g.iw = node.in_sample[2];
      g.oh = node.out_sample[1];
      g.ow = node.out_sample[2];
      g.kernel = node.pool_kernel;
      g.stride = node.pool_stride;
      nn::maxpool_forward(g, src, dst, /*argmax=*/nullptr, sched());
      return;
    }
    case OpKind::kGlobalPool:
      nn::global_avg_pool_forward(src, dst, batch * node.in_sample[0],
                                  node.in_sample[1] * node.in_sample[2],
                                  sched());
      return;
    case OpKind::kRelu:
      nn::relu_forward(src, dst, batch * node.out_sample.numel(), sched());
      return;
    case OpKind::kSigmoid: {
      const std::size_t n = batch * node.out_sample.numel();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = 1.0f / (1.0f + std::exp(-src[i]));
      }
      return;
    }
    case OpKind::kTanh: {
      const std::size_t n = batch * node.out_sample.numel();
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i]);
      return;
    }
    case OpKind::kBatchNorm: {
      // The unfolded case (producer opaque or fanned out): the running-
      // statistics affine, per channel.
      const std::size_t c = node.bn_scale.numel();
      const std::size_t plane = node.in_sample[1] * node.in_sample[2];
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t ch = 0; ch < c; ++ch) {
          const float scale = node.bn_scale.at(ch);
          const float shift = node.bn_shift.at(ch);
          const float* x = src + (b * c + ch) * plane;
          float* y = dst + (b * c + ch) * plane;
          for (std::size_t i = 0; i < plane; ++i) {
            y[i] = scale * x[i] + shift;
          }
        }
      }
      apply_epilogue(node.epilogue, dst, batch * node.out_sample.numel());
      return;
    }
    case OpKind::kDropout: {
      // Identity in eval mode; survives only when strip_noops is off.
      std::memcpy(dst, src,
                  batch * node.out_sample.numel() * sizeof(float));
      return;
    }
    case OpKind::kAdd: {
      // Residual join: elementwise branch + shortcut, then the fused
      // trailing activation while the sum is cache-hot — the exact math
      // of ResidualBlock's add/ReLU tail.
      PF15_CHECK(node.inputs.size() == 2);
      const float* a = edge_data(node.inputs[0], input, batch);
      const float* b = edge_data(node.inputs[1], input, batch);
      const std::size_t n = batch * node.out_sample.numel();
      for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
      apply_epilogue(node.epilogue, dst, n);
      return;
    }
    case OpKind::kSplit: {
      PF15_CHECK_MSG(false,
                     "split nodes own no buffer and are never scheduled");
      return;
    }
    case OpKind::kOpaque: {
      // Stage through owned tensors: Layer::forward wants Tensors, and an
      // opaque layer may resize its output.
      PF15_CHECK(node.layer != nullptr);
      nn::ensure_shape(opaque_in_[id], with_batch(node.in_sample, batch));
      std::memcpy(opaque_in_[id].data(), src,
                  opaque_in_[id].numel() * sizeof(float));
      node.layer->forward(opaque_in_[id], opaque_out_[id]);
      PF15_CHECK_MSG(
          opaque_out_[id].shape() == with_batch(node.out_sample, batch),
          node.name << ": opaque output " << opaque_out_[id].shape()
                    << " != planned " << with_batch(node.out_sample, batch));
      std::memcpy(dst, opaque_out_[id].data(),
                  opaque_out_[id].numel() * sizeof(float));
      return;
    }
  }
  PF15_CHECK_MSG(false, "unhandled op kind in compiled plan");
}

CompiledPlan compile(nn::Sequential& net, const Shape& sample_shape,
                     const CompileOptions& opt) {
  return CompiledPlan(capture(net, sample_shape), opt);
}

CompiledPlan compile(nn::ClimateNet& net, const CompileOptions& opt) {
  return CompiledPlan(capture(net), opt);
}

}  // namespace pf15::graph
