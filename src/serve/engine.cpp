#include "serve/engine.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "serve/checkpoint.hpp"

namespace pf15::serve {

namespace {

/// Seconds-domain duration buckets shared by the serving histograms:
/// 10us .. ~80s, doubling.
std::vector<double> duration_bounds() {
  return obs::Histogram::exponential_bounds(1e-5, 2.0, 23);
}

obs::MetricsRegistry& reg() { return obs::MetricsRegistry::global(); }

}  // namespace

ServingEngine::Metrics::Metrics()
    : requests(reg().counter("pf15_serve_requests_total",
                             "requests completed")),
      batches(reg().counter("pf15_serve_batches_total",
                            "batched forwards executed")),
      in_flight(reg().gauge("pf15_serve_in_flight",
                            "requests accepted but not answered")),
      batch_size(reg().histogram("pf15_serve_batch_size",
                                 {1, 2, 4, 8, 16, 32, 64, 128, 256},
                                 "coalesced batch sizes")),
      queue_wait(reg().histogram("pf15_serve_queue_wait_seconds",
                                 duration_bounds(),
                                 "submit -> batch formation")),
      latency(reg().histogram("pf15_serve_latency_seconds",
                              duration_bounds(), "submit -> result")) {}

ServingEngine::ServingEngine(ModelFactory factory, const EngineConfig& cfg)
    : cfg_(cfg), batcher_(cfg.batcher) {
  init_replicas(factory, nullptr, "");
}

ServingEngine::ServingEngine(ModelFactory factory,
                             const std::string& checkpoint_path,
                             const std::string& expected_kind,
                             const EngineConfig& cfg)
    : cfg_(cfg), batcher_(cfg.batcher) {
  // Read the checkpoint from disk once; every replica restores from the
  // in-memory copy.
  std::ifstream file(checkpoint_path, std::ios::binary);
  if (!file) {
    throw IoError("ServingEngine: cannot open checkpoint " +
                  checkpoint_path);
  }
  std::stringstream weights(std::ios::in | std::ios::out |
                            std::ios::binary);
  weights << file.rdbuf();
  init_replicas(factory, &weights, expected_kind);
}

void ServingEngine::init_replicas(const ModelFactory& factory,
                                  std::istream* weights,
                                  const std::string& expected_kind) {
  PF15_CHECK_MSG(cfg_.replicas >= 1, "need at least one replica");
  PF15_CHECK_MSG(cfg_.sample_shape.rank() >= 1,
                 "EngineConfig::sample_shape must be set");
  PF15_CHECK(factory != nullptr);

  replicas_.reserve(cfg_.replicas);
  replicas_.push_back(factory());

  // Without external weights, clone replica 0's so every replica answers
  // identically even when the factory randomises initialisation.
  std::stringstream replica0;
  std::string kind = expected_kind;
  if (weights == nullptr) {
    replica0 = std::stringstream(std::ios::in | std::ios::out |
                                 std::ios::binary);
    checkpoint_model(replica0, replicas_[0], "replica");
    weights = &replica0;
    kind = "replica";
  } else {
    restore_model(*weights, replicas_[0], kind);
    // A plan-carrying checkpoint warms the process-wide conv plan cache
    // before any plan is compiled: a cold server then answers its first
    // request with zero first-sight tunes. Plans recorded on a different
    // machine shape fail hardware validation; serving then just tunes
    // from scratch — degraded, never wrong.
    try {
      const std::string plans = read_embedded_plans(*weights);
      if (!plans.empty()) {
        gemm::ConvPlanCache::global().load_document(plans, "checkpoint");
      }
    } catch (const Error& e) {
      PF15_WARN("serving: ignoring embedded conv plans (" << e.what()
                                                          << ")");
    }
  }
  for (std::size_t i = 1; i < cfg_.replicas; ++i) {
    replicas_.push_back(factory());
    weights->clear();
    weights->seekg(0);
    restore_model(*weights, replicas_.back(), kind);
  }

  for (auto& r : replicas_) r.set_training(false);
  if (cfg_.compiled) {
    plans_.reserve(replicas_.size());
    for (auto& r : replicas_) {
      plans_.push_back(std::make_unique<graph::CompiledPlan>(
          graph::compile(r, cfg_.sample_shape)));
    }
  }
  output_sample_shape_ =
      strip_batch(replicas_[0].output_shape(with_batch(cfg_.sample_shape, 1)));
  start_workers();
}

ServingEngine::~ServingEngine() { shutdown(); }

void ServingEngine::start_workers() {
  // Replica loops block on the batcher, so they get dedicated threads —
  // parking a long-lived blocking loop on a task-scheduler worker would
  // strand that worker for the engine's lifetime. Compute (compiled
  // plans, conv batch loops) still fans out on the global scheduler, so
  // replica-level and node-level parallelism compose.
  workers_.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ServingEngine::note_submit() {
  MutexLock lock(stats_mutex_);
  if (!saw_first_submit_) {
    saw_first_submit_ = true;
    first_submit_ = std::chrono::steady_clock::now();
  }
}

std::future<Tensor> ServingEngine::submit(const Tensor& sample) {
  PF15_CHECK_MSG(sample.shape() == cfg_.sample_shape,
                 "submit: sample shape " << sample.shape()
                                         << " != engine sample shape "
                                         << cfg_.sample_shape);
  // The span covers the enqueue including any backpressure block — queue
  // saturation shows up as long submit spans on producer threads.
  obs::TraceSpan span("submit", "serve");
  std::future<Tensor> fut = batcher_.submit(sample.clone());
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  metrics_.in_flight.add(1.0);
  note_submit();  // only requests the batcher accepted count for throughput
  return fut;
}

std::optional<std::future<Tensor>> ServingEngine::try_submit(
    const Tensor& sample) {
  PF15_CHECK_MSG(sample.shape() == cfg_.sample_shape,
                 "try_submit: sample shape " << sample.shape()
                                             << " != engine sample shape "
                                             << cfg_.sample_shape);
  std::optional<std::future<Tensor>> fut =
      batcher_.try_submit(sample.clone());
  if (fut.has_value()) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    metrics_.in_flight.add(1.0);
    note_submit();
  }
  return fut;
}

void ServingEngine::worker_loop(std::size_t replica_index) {
  while (true) {
    std::vector<Request> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained
    serve_batch(replica_index, std::move(batch));
  }
}

void ServingEngine::serve_batch(std::size_t replica_index,
                                std::vector<Request>&& batch) {
  const std::size_t n = batch.size();
  bool counted_done = false;
  try {
    // Queue wait per request (enqueue -> this batch forming), recorded on
    // the worker's track: the tracer accepts explicit (ts, dur) so the
    // cross-thread interval shows up even though no single thread spans
    // it.
    if (obs::trace_enabled()) {
      const double now_us = obs::trace_now_us();
      const auto now = std::chrono::steady_clock::now();
      for (const Request& req : batch) {
        const double wait_us =
            std::chrono::duration<double, std::micro>(now - req.enqueued)
                .count();
        obs::trace_record("queue_wait", "serve", now_us - wait_us, wait_us);
      }
    }
    {
      const auto formed = std::chrono::steady_clock::now();
      for (const Request& req : batch) {
        metrics_.queue_wait.observe(
            std::chrono::duration<double>(formed - req.enqueued).count());
      }
    }
    metrics_.batch_size.observe(static_cast<double>(n));

    obs::TraceSpan exec_span("replica_execute", "serve");
    std::vector<const Tensor*> inputs;
    inputs.reserve(n);
    for (const auto& req : batch) inputs.push_back(&req.input);
    const Tensor batched = stack_samples(inputs);

    const Tensor& out = cfg_.compiled
                            ? plans_[replica_index]->run(batched)
                            : replicas_[replica_index].forward(batched);
    PF15_CHECK_MSG(out.shape().rank() >= 1 && out.shape()[0] == n,
                   "replica output " << out.shape()
                                     << " lacks batch dimension " << n);

    // Record metrics before fulfilling any promise: a caller that wakes
    // from future.get() and immediately reads stats() must see this batch.
    const auto done = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const double seconds =
          std::chrono::duration<double>(done - batch[i].enqueued).count();
      latency_.record(seconds);
      metrics_.latency.observe(seconds);
    }
    requests_completed_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(n, std::memory_order_relaxed);
    counted_done = true;
    metrics_.requests.add(n);
    metrics_.batches.add(1);
    metrics_.in_flight.add(-static_cast<double>(n));
    {
      MutexLock lock(stats_mutex_);
      last_completion_ = done;
    }

    obs::TraceSpan respond_span("respond", "serve");
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].result.set_value(extract_sample(out, i));
    }
  } catch (...) {
    // A failed batch fails each of its requests, not the engine: the
    // exception propagates through every future, workers keep serving.
    // Failed requests are answered (with an exception), so they leave
    // the in-flight count too — unless the success path already took
    // them out before the failure.
    if (!counted_done) {
      in_flight_.fetch_sub(n, std::memory_order_relaxed);
      metrics_.in_flight.add(-static_cast<double>(n));
    }
    const std::exception_ptr err = std::current_exception();
    for (auto& req : batch) {
      try {
        req.result.set_exception(err);
      } catch (const std::future_error&) {
        // Promise already satisfied (failure mid-fulfilment); nothing to do.
      }
    }
  }
}

void ServingEngine::shutdown() {
  if (stopped_.exchange(true)) return;
  batcher_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ServingStats ServingEngine::stats() const {
  ServingStats s;
  s.requests = requests_completed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches ? static_cast<double>(s.requests) /
                      static_cast<double>(s.batches)
                : 0.0;
  s.latency = latency_.summary();
  s.rejected = batcher_.rejected();
  s.queue_depth = batcher_.depth();
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  {
    MutexLock lock(stats_mutex_);
    if (saw_first_submit_ && s.requests > 0) {
      const double elapsed =
          std::chrono::duration<double>(last_completion_ - first_submit_)
              .count();
      s.throughput_rps =
          elapsed > 0 ? static_cast<double>(s.requests) / elapsed : 0.0;
    }
  }
  return s;
}

}  // namespace pf15::serve
