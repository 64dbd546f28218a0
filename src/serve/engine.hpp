// Concurrent inference engine: N model replicas behind a dynamic batcher.
//
// The serving story mirrors the paper's training story at request scale:
// the batch dimension is where the hardware efficiency lives, so the
// engine turns a stream of independent single-sample requests into
// batched inference-mode forward passes. Each replica is a full copy of
// the network owned by exactly one worker thread (no locking on the hot
// path — a Sequential is not re-entrant), all workers pull from one
// bounded DynamicBatcher queue, and callers hold futures.
//
//   caller ──submit()──▶ DynamicBatcher ──next_batch()──▶ replica k
//     ◀───────future◀──────promise◀────────forward(batch)─────┘
//
// Checkpoints close the loop with training: build the engine from a
// factory (architecture) plus a checkpoint (weights). Every replica gets
// byte-identical weights and is switched to inference mode, so any
// replica answers any request identically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "graph/compiled_plan.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "perf/latency.hpp"
#include "serve/batcher.hpp"

namespace pf15::serve {

/// Builds one architecture instance (weights need not be meaningful; the
/// engine overwrites them so all replicas match).
using ModelFactory = std::function<nn::Sequential()>;

struct EngineConfig {
  /// Model replicas == worker threads pulling from the shared queue.
  std::size_t replicas = 1;
  /// Per-request sample shape, e.g. (C, H, W). submit() validates it.
  Shape sample_shape;
  BatcherConfig batcher;
  /// Execute through per-replica graph::CompiledPlans (eval no-ops
  /// stripped, BatchNorm folded, activations fused — inside residual
  /// sub-graphs too — static activation arena, pre-tuned conv plans)
  /// instead of eager Sequential::forward. Output-equivalent to eager
  /// within floating-point tolerance.
  bool compiled = false;
};

/// Point-in-time serving metrics (percentiles via perf::LatencyRecorder,
/// p50/p90/p99/p999). The counters mirror the process-wide metrics
/// registry (pf15_serve_*), which benches and examples dump wholesale.
struct ServingStats {
  std::size_t requests = 0;  // completed requests
  std::size_t batches = 0;   // batched forwards executed
  double mean_batch_size = 0.0;
  perf::LatencySummary latency;  // submit -> result, seconds
  double throughput_rps = 0.0;   // completed / (last completion - first submit)
  /// Requests the batcher turned away (try_submit at capacity, or any
  /// submission after shutdown began).
  std::size_t rejected = 0;
  /// Requests waiting in the batcher right now (sampled).
  std::size_t queue_depth = 0;
  /// Requests accepted but not yet answered (queued + being served).
  std::size_t in_flight = 0;
};

class ServingEngine {
 public:
  /// Replica 0 comes from `factory`; the rest are byte-identical copies of
  /// it. All replicas are put in inference mode. Workers start immediately.
  ServingEngine(ModelFactory factory, const EngineConfig& cfg);

  /// Same, but all replicas restore their weights from the checkpoint at
  /// `path` first (kind-checked against `expected_kind` unless empty).
  ServingEngine(ModelFactory factory, const std::string& checkpoint_path,
                const std::string& expected_kind, const EngineConfig& cfg);

  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues one sample (cloned); blocks under backpressure. The future
  /// resolves to this sample's output row (batch dimension stripped).
  /// Throws ShutdownError after shutdown().
  std::future<Tensor> submit(const Tensor& sample);

  /// Non-blocking: nullopt when the queue is at capacity.
  std::optional<std::future<Tensor>> try_submit(const Tensor& sample);

  /// Graceful shutdown: stop accepting, drain the queue, join workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServingStats stats() const;

  std::size_t replica_count() const { return replicas_.size(); }
  const EngineConfig& config() const { return cfg_; }
  /// Per-sample output shape (batch dimension stripped).
  const Shape& output_shape() const { return output_sample_shape_; }
  /// The compile report of replica 0's plan; null when running eager.
  const graph::CompileReport* compile_report() const {
    return plans_.empty() ? nullptr : &plans_.front()->report();
  }

 private:
  /// Shared constructor tail: builds the replicas from `factory`, restores
  /// each from `weights` (checkpoint bytes; null = clone replica 0 so all
  /// replicas match even with a randomising factory), merges any embedded
  /// conv plans into the global plan cache, switches the replicas to
  /// inference mode, compiles per-replica plans when configured, probes
  /// the output shape, starts the workers.
  void init_replicas(const ModelFactory& factory, std::istream* weights,
                     const std::string& expected_kind);
  void start_workers();
  void worker_loop(std::size_t replica_index);
  void serve_batch(std::size_t replica_index, std::vector<Request>&& batch);
  void note_submit();

  EngineConfig cfg_;
  std::vector<nn::Sequential> replicas_;
  /// One compiled plan per replica (empty when cfg_.compiled is false).
  /// A plan is stateful like its replica: only its worker touches it.
  std::vector<std::unique_ptr<graph::CompiledPlan>> plans_;
  Shape output_sample_shape_;
  DynamicBatcher batcher_;

  // One dedicated thread per replica (the loops block on the batcher,
  // so they must not occupy task-scheduler workers); shutdown() joins.
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  // ---- metrics ----
  perf::LatencyRecorder latency_;
  std::atomic<std::size_t> requests_completed_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> in_flight_{0};
  mutable Mutex stats_mutex_;
  bool saw_first_submit_ PF15_GUARDED_BY(stats_mutex_) = false;
  std::chrono::steady_clock::time_point first_submit_
      PF15_GUARDED_BY(stats_mutex_);
  std::chrono::steady_clock::time_point last_completion_
      PF15_GUARDED_BY(stats_mutex_);

  // Registry instruments (process-wide by name; hoisted once at
  // construction so the hot path never touches the registry mutex).
  struct Metrics {
    Metrics();
    obs::Counter& requests;
    obs::Counter& batches;
    obs::Gauge& in_flight;
    obs::Histogram& batch_size;
    obs::Histogram& queue_wait;
    obs::Histogram& latency;
  };
  Metrics metrics_;
};

}  // namespace pf15::serve
