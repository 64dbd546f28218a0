// Compiled inference plan: compile once, execute many.
//
// CompiledPlan is the executable product of the graph compiler. Its
// constructor runs the optimization passes (strip eval no-ops, fold
// BatchNorm into conv/dense weights, fuse activation epilogues — now
// *inside* residual sub-graphs too, including the skip-add's trailing
// ReLU fusing into the join), plans the activation arena (arena.hpp),
// and — the "born warm" property — pre-tunes every convolution node's
// (problem, phase) through the process-wide gemm::ConvPlanCache, so the
// first real request already dispatches to measured backend winners and
// the tuned plans persist across processes via $PF15_CONV_PLAN_CACHE and
// plan-carrying checkpoints (serve/checkpoint.hpp).
//
// run() is the execute-many side: every intermediate activation lives at
// a fixed offset in one shared arena (per-sample offsets scale linearly
// with the batch), convolution epilogues apply fused bias/activation
// while the output image is cache-hot, and weight-only transforms
// (Winograd's forward U and backward-data rotated bank) are hoisted out
// of the batch loop via ConvBackend::prepare_forward /
// prepare_backward_data. Execution is *level-scheduled*: nodes are
// grouped by DAG level (graph.hpp's levels()), levels run in order with
// a barrier between them (a TaskSync continuation barrier — the waiting
// thread helps execute), and when a level holds several independent
// nodes (the climate head fan-out, a residual branch next to its
// projection) they fan out as tasks on common::task_scheduler. Nesting
// is legal on the scheduler, so node×batch product parallelism falls
// out: each node task fans its batch across per-image child tasks, and
// each conv backend computes its image serially inside that task, so a
// plan on a private scheduler spawns no conv work on the global one.
// Per-level barriers keep the schedule deterministic: every
// node reads fully-written buffers regardless of how its level was
// scheduled, and every node runs arithmetic identical to the serial
// schedule (bit-exact outputs either way).
//
// A CompiledPlan is stateful (arena, output tensors) and therefore not
// re-entrant: one plan per serving replica, exactly like the eager
// nn::Sequential it replaces. Plans with opaque nodes (unknown
// extensions) borrow the source network's layers and are only valid
// while that network lives; an opaque node joins a wide level only when
// its layer opts in via Layer::parallel_ok() (the layer's forward must
// tolerate running inside a scheduler task alongside other nodes).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "graph/arena.hpp"
#include "graph/graph.hpp"
#include "graph/passes.hpp"

namespace pf15 {
class TaskScheduler;
}

namespace pf15::graph {

struct CompileOptions {
  bool strip_noops = true;
  bool fold_batchnorm = true;
  bool fuse_activations = true;
  /// Run same-level independent nodes concurrently on the task scheduler
  /// (false: strictly serial topological execution — the reference
  /// schedule the bench compares against; per-node batch fan-out still
  /// parallelizes either way).
  bool parallel_levels = true;
  /// Scheduler the plan executes on. Null means
  /// TaskScheduler::global(); the threads-sweep bench passes local
  /// schedulers of fixed width. The scheduler must outlive the plan.
  TaskScheduler* scheduler = nullptr;
  /// Pre-tune every kAuto conv/deconv node's (problem, phase) through
  /// gemm::ConvPlanCache::global() at construction.
  bool pretune = true;
  /// Unused by tuning and execution: conv plans do not depend on the
  /// batch, and run() accepts any batch. Kept only so callers that still
  /// set it compile; it is slated for removal.
  std::size_t max_batch = 1;
};

struct CompileReport {
  PassStats passes;
  std::size_t captured_ops = 0;  // nodes before optimization
  std::size_t compiled_ops = 0;  // nodes after
  /// Level schedule shape: number of levels and the widest level (work
  /// nodes only — splits schedule nothing). max_level_width > 1 is where
  /// the parallel executor has concurrency to exploit.
  std::size_t levels = 0;
  std::size_t max_level_width = 0;
  /// Nodes scheduled inside wide (>1 node) levels — the node-level
  /// concurrency the parallel executor actually exploits. Opaque nodes
  /// count only when their layer opts in via Layer::parallel_ok().
  std::size_t wide_level_nodes = 0;
  /// Arena extent vs what eager execution keeps resident (per sample,
  /// floats). arena < eager is the planner's reuse win.
  std::size_t arena_floats_per_sample = 0;
  std::size_t eager_floats_per_sample = 0;
  /// Plan-cache queries issued by pre-tuning (one per kAuto conv/deconv
  /// node), and how many of them had to tune from scratch (0 = the plan
  /// was born fully warm).
  std::size_t pretuned_plans = 0;
  std::size_t pretune_misses = 0;
  /// Wall time of compilation, and of the pretune stage within it. These
  /// also feed the pf15_graph_* registry metrics, so a serving process's
  /// metrics snapshot shows what compilation cost without holding the
  /// report.
  double compile_seconds = 0.0;
  double pretune_seconds = 0.0;
};

class CompiledPlan {
 public:
  /// Compiles an already-captured graph. Prefer the compile() helpers.
  CompiledPlan(Graph graph, const CompileOptions& opt);

  CompiledPlan(CompiledPlan&&) noexcept = default;
  CompiledPlan& operator=(CompiledPlan&&) noexcept = default;

  const Graph& graph() const { return graph_; }
  const CompileReport& report() const { return report_; }
  const ArenaAssignment& arena_plan() const { return arena_plan_; }

  /// Arena footprint for a batch of `batch` samples.
  std::size_t arena_bytes(std::size_t batch) const {
    return arena_plan_.total_floats * batch * sizeof(float);
  }
  /// What eager execution holds for the same batch (sum of every node
  /// output, no reuse).
  std::size_t eager_activation_bytes(std::size_t batch) const {
    return arena_plan_.eager_floats * batch * sizeof(float);
  }

  /// Executes the plan on a batched input (leading dimension = batch).
  /// Returns one tensor per graph output, in graph output order, owned by
  /// the plan and valid until the next run.
  const std::vector<Tensor>& run_all(const Tensor& input);

  /// Single-output convenience (Sequential-shaped graphs).
  const Tensor& run(const Tensor& input);

 private:
  /// Frozen dispatch state of one conv/deconv node. A compiled plan's
  /// weights never change, so the backend and its prepared weight
  /// transform (Winograd's U, forward or backward-data; sub-pixel's W2)
  /// are resolved on the first run and reused — later runs never touch
  /// the plan-cache mutex or recompute a filter transform.
  struct ConvDispatch {
    const gemm::ConvBackend* backend = nullptr;
    std::unique_ptr<gemm::ConvPrep> prep;
  };

  void build_schedule(bool parallel_levels);
  void pretune_convs();
  /// The scheduler the plan executes on (CompileOptions::scheduler, or
  /// the global one).
  TaskScheduler& sched() const;
  /// Executes node `id`: conv/deconv fan the batch across per-image
  /// child tasks, dense runs the parallel GEMM — safe at any nesting
  /// depth, including inside a wide-level node task.
  void execute_node(std::size_t id, const Tensor& input,
                    std::size_t batch);
  /// The backend and prep node `id` dispatches to, memoized in
  /// dispatch_[id]. A node runs exactly one phase (conv: forward,
  /// deconv: backward-data).
  const ConvDispatch& conv_dispatch(std::size_t id, gemm::ConvPhase phase);
  /// Read pointer for edge `e` (resolving split aliases; kGraphInput
  /// reads the run input).
  const float* edge_data(int e, const Tensor& input, std::size_t batch);

  Graph graph_;
  ArenaAssignment arena_plan_;
  CompileReport report_;
  std::vector<float> arena_;
  std::vector<Tensor> outputs_;
  /// Result-tensor index an external node produces into; -1 otherwise.
  std::vector<int> output_slot_;
  /// Level schedule: per level, the work nodes that may run concurrently
  /// as scheduler tasks and those that must run serially (opaque nodes
  /// whose layer did not opt in via Layer::parallel_ok()). Splits are
  /// not scheduled at all.
  struct Level {
    std::vector<std::size_t> parallel;
    std::vector<std::size_t> serial;
  };
  std::vector<Level> schedule_;
  /// Per-level span names ("level0", ...), precomputed so the traced
  /// executor never concatenates strings per run.
  std::vector<std::string> level_names_;
  bool parallel_levels_ = true;
  TaskScheduler* scheduler_ = nullptr;
  /// Per-node frozen conv dispatch (empty entries for non-conv nodes).
  std::vector<ConvDispatch> dispatch_;
  // Boxed staging tensors for opaque nodes (Layer::forward needs owned
  // Tensors, not arena slices); indexed by node id, allocated lazily.
  std::vector<Tensor> opaque_in_;
  std::vector<Tensor> opaque_out_;
};

/// Captures and compiles `net` (must be in inference mode; throws
/// pf15::ConfigError otherwise — a training-mode net must never be
/// silently folded into an eval plan).
CompiledPlan compile(nn::Sequential& net, const Shape& sample_shape,
                     const CompileOptions& opt = {});

/// ClimateNet: outputs ordered (conf, cls, xy, wh, recon).
CompiledPlan compile(nn::ClimateNet& net, const CompileOptions& opt = {});

}  // namespace pf15::graph
