#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "data/climate_generator.hpp"
#include "data/hep_generator.hpp"
#include "data/loader.hpp"
#include "data/shard_store.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "graph/compiled_plan.hpp"
#include "hybrid/hybrid_trainer.hpp"
#include "hybrid/trainable.hpp"
#include "nn/climate_net.hpp"
#include "nn/hep_model.hpp"
#include "nn/losses.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "solver/solver.hpp"
#include "stats.hpp"

namespace pf15::bench {
namespace {

using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, double>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}
Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

perf::Json json_array(const std::vector<double>& v) {
  perf::Json a = perf::Json::array();
  for (double x : v) a.push_back(x);
  return a;
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---- Workload configuration ------------------------------------------------
//
// Sizes keep one cold set-up (construction, first-sight conv-plan tuning,
// warm-up) near a second on a 4-core AVX2 host. First-sight tuning grows
// steeply with image size — the HEP net at 112 px tunes for ~25 s — and
// every run sets up kSetupReps times to report a median.
constexpr int kSetupReps = 5;
constexpr int kWarmupSteps = 2;
constexpr std::size_t kTrainBatch = 8;
constexpr std::size_t kServeMaxBatch = 16;
constexpr double kServeRate = 1000.0;          // open-loop requests/s
constexpr double kServeOpenShare = 0.6;        // of the measured window
constexpr std::size_t kServeOutstanding = 64;  // closed-loop requests
constexpr std::size_t kCheckEvery = 64;        // served outputs checked
constexpr double kServeTolerance = 1e-4;
constexpr double kLateMs = 1.0;  // a send this late counts as late
constexpr std::size_t kHybridBatch = 4;
// ~100 ms per iteration on a 4-core AVX2 host.
constexpr double kHybridIterationsPerSecond = 10.0;
constexpr std::size_t kMaxFailures = 8;  // stop a loop that keeps failing
constexpr std::size_t kMinSteps = 20;    // the loss check compares 10 and 10

nn::HepConfig train_hep_config() {
  nn::HepConfig c;
  c.image = 64;
  c.filters = 64;
  c.conv_units = 5;
  return c;
}

nn::ClimateConfig train_climate_config() {
  nn::ClimateConfig c;
  c.image = 64;
  c.channels = 16;
  c.classes = 4;
  c.widths = {16, 32, 48, 64, 80};
  return c;
}

nn::HepConfig serve_hep_config() {
  nn::HepConfig c;
  c.image = 64;
  c.filters = 32;
  c.conv_units = 4;
  return c;
}

// The paper's HEP model (128 filters, 5 units: 2.3 MiB at 224 px) at 32 px.
nn::HepConfig hybrid_hep_config() {
  nn::HepConfig c;
  c.image = 32;
  c.filters = 128;
  c.conv_units = 5;
  return c;
}

hybrid::HybridConfig hybrid_run_config(std::size_t iterations) {
  hybrid::HybridConfig c;
  c.num_workers = 4;
  c.num_groups = 2;
  c.num_ps = 1;
  c.iterations = iterations;
  c.solver = hybrid::SolverKind::kAdam;
  c.learning_rate = 1e-3;
  c.ps_codec = ps::Codec::kFp16;
  c.flight_capacity = 1 << 14;
  return c;
}

struct Fixture {
  const char* file;
  std::size_t channels;
  std::size_t image;
  std::size_t count;
  bool climate;
};

Fixture fixture_for(const std::string& workload) {
  if (workload == "train_climate") return {"climate64.shard", 16, 64, 128, true};
  if (workload == "hybrid_hep") return {"hep32.shard", 3, 32, 256, false};
  return {"hep64.shard", 3, 64, 256, false};  // train_hep, serve_hep
}

std::string shard_path(const RunOptions& opt) {
  return opt.data_dir + "/" + fixture_for(opt.workload).file;
}

bool fixture_valid(const Fixture& f, const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  try {
    data::ShardReader reader(path);
    return reader.size() == f.count && reader.channels() == f.channels &&
           reader.height() == f.image && reader.width() == f.image;
  } catch (const Error&) {
    return false;
  }
}

void write_fixture(const Fixture& f, std::uint64_t seed,
                   const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    data::ShardWriter writer(tmp, f.channels, f.image, f.image);
    if (f.climate) {
      data::ClimateGeneratorConfig g;
      g.image = f.image;
      g.channels = f.channels;
      g.classes = 4;
      g.seed = seed;
      data::ClimateGenerator gen(g);
      for (std::size_t i = 0; i < f.count; ++i) {
        data::ClimateSample s = gen.generate();
        writer.append({std::move(s.image), 0, s.labeled, std::move(s.boxes)});
      }
    } else {
      data::HepGeneratorConfig g;
      g.image = f.image;
      g.channels = f.channels;
      g.seed = seed;
      data::HepGenerator gen(g);
      for (std::size_t i = 0; i < f.count; ++i) {
        data::HepEvent ev = gen.generate();
        writer.append({std::move(ev.image), ev.label, true, {}});
      }
    }
    writer.close();
  }
  std::filesystem::rename(tmp, path);
}

// ---- Registry, set-up and shared checks ------------------------------------

/// A counter or gauge of a MetricsRegistry::to_json() snapshot, or a
/// histogram's `field` ("count", "sum"); 0 when absent.
double registry_value(const perf::Json& snap, const std::string& name,
                      const char* field) {
  const perf::Json* v = snap.find(name);
  if (v == nullptr) return 0.0;
  if (field == nullptr) return v->is_number() ? v->as_number() : 0.0;
  const perf::Json* f = v->find(field);
  return f != nullptr ? f->as_number() : 0.0;
}

/// Registry instruments over a window of the run.
struct RegistryWindow {
  perf::Json before = obs::MetricsRegistry::global().to_json();
  perf::Json after;

  void close() { after = obs::MetricsRegistry::global().to_json(); }
  double delta(const std::string& name, const char* field = nullptr) const {
    return registry_value(after, name, field) -
           registry_value(before, name, field);
  }
};

struct SetupStats {
  std::vector<double> seconds;
  std::vector<double> tune_seconds;
  double tunes = 0.0;  // plan-cache misses of the latest set-up
};

/// Everything a workload reads and fills in.
struct Context {
  const RunOptions& opt;
  SpanRecorder& spans;
  Result& result;
  Values e2e;
  Values layer;
  SetupStats setup;
  double gemm_peak_gflops = 0.0;  // traced runs
  /// Layer spans the trace must hold, one per (layer, phase, step).
  std::size_t expected_layer_spans = 0;
};

/// Runs `build` from a cold conv-plan cache and times it as one set-up.
template <class F>
auto cold_setup(Context& c, F&& build) {
  gemm::ConvPlanCache::global().clear();
  RegistryWindow window;
  const auto t0 = Clock::now();
  auto built = build();
  c.setup.seconds.push_back(seconds_between(t0, Clock::now()));
  window.close();
  c.setup.tune_seconds.push_back(
      window.delta("pf15_convplan_tune_seconds", "sum"));
  c.setup.tunes = window.delta("pf15_convplan_misses_total");
  c.result.check(c.setup.tunes > 0,
                 "set-up tuned no conv plan: the plan cache was not cold");
  return built;
}

void check_loss_falls(Result& r, const std::vector<double>& losses) {
  constexpr std::size_t kWindow = kMinSteps / 2;
  if (losses.size() < 2 * kWindow) {
    r.check(false, "only " + std::to_string(losses.size()) +
                       " losses measured; the loss check needs " +
                       std::to_string(2 * kWindow));
    return;
  }
  const std::vector<double> first(losses.begin(), losses.begin() + kWindow);
  const std::vector<double> last(losses.end() - kWindow, losses.end());
  r.detail.set("loss_first10_mean", mean(first));
  r.detail.set("loss_last10_mean", mean(last));
  r.check(mean(last) < mean(first),
          "loss did not fall: mean of the first 10 steps " +
              std::to_string(mean(first)) + ", of the last 10 " +
              std::to_string(mean(last)));
}

double gemm_peak_gflops() {
  constexpr std::size_t n = 1024;
  std::vector<float> a(n * n), b(n * n), out(n * n);
  Rng rng(7);
  for (auto* v : {&a, &b}) {
    for (float& x : *v) x = rng.uniform(-1.0f, 1.0f);
  }
  double best = 1e30;
  for (int rep = 0; rep < 4; ++rep) {
    const auto t0 = Clock::now();
    gemm::sgemm_parallel(false, false, n, n, n, 1.0f, a.data(), n, b.data(),
                         n, 0.0f, out.data(), n);
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  return static_cast<double>(gemm::flops(n, n, n)) / best / 1e9;
}

/// Span lane of the calling thread (chrome://tracing "tid").
int lane() {
  static std::atomic<int> next{1};
  thread_local const int mine = next++;
  return mine;
}

// ---- Training --------------------------------------------------------------

/// Runs one Sequential layer by layer through nn::Sequential::layer(i),
/// with a span around every layer's forward and backward: the traced run's
/// per-layer attribution. Holds its own activations, so the library's
/// internal ones stay untouched.
class LayerRunner {
 public:
  explicit LayerRunner(nn::Sequential& net)
      : net_(net),
        acts_(net.layer_count()),
        grads_(net.layer_count()),
        in_shapes_(net.layer_count()) {}

  const Tensor& forward(const Tensor& in, SpanRecorder& spans,
                        std::int64_t step) {
    const Tensor* cur = &in;
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      nn::Layer& layer = net_.layer(i);
      in_shapes_[i] = cur->shape();
      {
        ScopedSpan span(spans, layer.name(), "fwd", step);
        layer.forward(*cur, acts_[i]);
      }
      cur = &acts_[i];
    }
    return *cur;
  }

  const Tensor& backward(const Tensor& in, const Tensor& dout,
                         SpanRecorder& spans, std::int64_t step) {
    const Tensor* grad = &dout;
    for (std::size_t i = net_.layer_count(); i-- > 0;) {
      nn::Layer& layer = net_.layer(i);
      {
        ScopedSpan span(spans, layer.name(), "bwd", step);
        layer.backward(i == 0 ? in : acts_[i - 1], *grad, grads_[i]);
      }
      grad = &grads_[i];
    }
    return *grad;
  }

  const Tensor& output() const { return acts_.back(); }
  std::size_t layer_count() const { return net_.layer_count(); }

  /// Per-layer analytic (forward, backward) FLOPs at the last forward's
  /// input shapes, plus the layer's name.
  void layer_flops(
      std::vector<std::tuple<std::string, double, double>>& out) const {
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      const nn::Layer& layer = std::as_const(net_).layer(i);
      out.emplace_back(layer.name(),
                       static_cast<double>(layer.forward_flops(in_shapes_[i])),
                       static_cast<double>(layer.backward_flops(in_shapes_[i])));
    }
  }

 private:
  nn::Sequential& net_;
  std::vector<Tensor> acts_;
  std::vector<Tensor> grads_;
  std::vector<Shape> in_shapes_;
};

/// A training workload's model: the untraced step goes through the
/// library's Trainable, the traced step drives the same network layer by
/// layer.
class TrainModel {
 public:
  TrainModel() = default;
  virtual ~TrainModel() = default;
  TrainModel(const TrainModel&) = delete;
  TrainModel& operator=(const TrainModel&) = delete;

  virtual double step(const data::Batch& batch) = 0;
  virtual double traced_step(const data::Batch& batch, SpanRecorder& spans,
                             std::int64_t step) = 0;
  virtual solver::Solver& solver() = 0;
  virtual std::size_t layer_count() const = 0;
  virtual void layer_flops(
      std::vector<std::tuple<std::string, double, double>>& out) const = 0;
};

class HepModel final : public TrainModel {
 public:
  explicit HepModel(const nn::HepConfig& cfg)
      : model_(cfg), solver_(model_.params(), 1e-3), runner_(model_.net()) {}

  double step(const data::Batch& batch) override {
    return model_.train_step(batch);
  }

  double traced_step(const data::Batch& batch, SpanRecorder& spans,
                     std::int64_t step) override {
    const Tensor* logits = nullptr;
    {
      ScopedSpan span(spans, "forward", "nn", step);
      logits = &runner_.forward(batch.images, spans, step);
    }
    double loss = 0.0;
    {
      ScopedSpan span(spans, "loss", "nn", step);
      loss = loss_.forward_backward(*logits, batch.labels, probs_, dlogits_);
    }
    {
      ScopedSpan span(spans, "backward", "nn", step);
      runner_.backward(batch.images, dlogits_, spans, step);
    }
    return loss;
  }

  solver::Solver& solver() override { return solver_; }
  std::size_t layer_count() const override { return runner_.layer_count(); }
  void layer_flops(std::vector<std::tuple<std::string, double, double>>& out)
      const override {
    runner_.layer_flops(out);
  }

 private:
  hybrid::HepTrainable model_;
  solver::AdamSolver solver_;
  LayerRunner runner_;
  nn::SoftmaxCrossEntropy loss_;
  Tensor probs_;
  Tensor dlogits_;
};

/// The climate net runs part by part (encoder, four heads, decoder), each
/// part layer by layer, in the order ClimateNet::forward uses.
class ClimateModel final : public TrainModel {
 public:
  explicit ClimateModel(const nn::ClimateConfig& cfg)
      : model_(cfg),
        solver_(model_.params(), 5e-3, 0.9),
        encoder_(model_.net().encoder()),
        decoder_(model_.net().decoder()),
        heads_{LayerRunner(model_.net().conf_head()),
               LayerRunner(model_.net().cls_head()),
               LayerRunner(model_.net().xy_head()),
               LayerRunner(model_.net().wh_head())} {}

  double step(const data::Batch& batch) override {
    return model_.train_step(batch);
  }

  double traced_step(const data::Batch& batch, SpanRecorder& spans,
                     std::int64_t step) override {
    {
      ScopedSpan span(spans, "forward", "nn", step);
      const Tensor& feats = encoder_.forward(batch.images, spans, step);
      out_.conf.copy_or_assign_from(heads_[0].forward(feats, spans, step));
      out_.cls.copy_or_assign_from(heads_[1].forward(feats, spans, step));
      out_.xy.copy_or_assign_from(heads_[2].forward(feats, spans, step));
      out_.wh.copy_or_assign_from(heads_[3].forward(feats, spans, step));
      out_.recon.copy_or_assign_from(decoder_.forward(feats, spans, step));
    }
    double loss = 0.0;
    {
      ScopedSpan span(spans, "loss", "nn", step);
      std::vector<nn::ClimateTarget> targets(batch.labels.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        targets[i].boxes = batch.boxes[i];
        targets[i].labeled = batch.labeled[i];
      }
      loss = loss_.compute(out_, batch.images, targets, grads_).total();
    }
    {
      ScopedSpan span(spans, "backward", "nn", step);
      const Tensor& feats = encoder_.output();
      nn::ensure_shape(dfeatures_, feats.shape());
      dfeatures_.zero();
      dfeatures_.axpy(1.0f, heads_[0].backward(feats, grads_.conf, spans, step));
      dfeatures_.axpy(1.0f, heads_[1].backward(feats, grads_.cls, spans, step));
      dfeatures_.axpy(1.0f, heads_[2].backward(feats, grads_.xy, spans, step));
      dfeatures_.axpy(1.0f, heads_[3].backward(feats, grads_.wh, spans, step));
      dfeatures_.axpy(1.0f, decoder_.backward(feats, grads_.recon, spans, step));
      encoder_.backward(batch.images, dfeatures_, spans, step);
    }
    return loss;
  }

  solver::Solver& solver() override { return solver_; }
  std::size_t layer_count() const override {
    std::size_t n = encoder_.layer_count() + decoder_.layer_count();
    for (const auto& h : heads_) n += h.layer_count();
    return n;
  }
  void layer_flops(std::vector<std::tuple<std::string, double, double>>& out)
      const override {
    encoder_.layer_flops(out);
    for (const auto& h : heads_) h.layer_flops(out);
    decoder_.layer_flops(out);
  }

 private:
  hybrid::ClimateTrainable model_;
  solver::SgdSolver solver_;
  LayerRunner encoder_;
  LayerRunner decoder_;
  std::array<LayerRunner, 4> heads_;
  nn::ClimateLoss loss_;
  nn::ClimateNet::Outputs out_;
  nn::ClimateNet::OutputGrads grads_;
  Tensor dfeatures_;
};

void run_train(Context& c) {
  const RunOptions& opt = c.opt;
  Result& r = c.result;
  const bool climate = opt.workload == "train_climate";
  const Fixture fx = fixture_for(opt.workload);
  const std::string shard = shard_path(opt);

  struct Session {
    std::unique_ptr<data::ShardReader> reader;
    std::unique_ptr<data::BatchLoader> loader;
    std::unique_ptr<TrainModel> model;
  };
  Session s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Session{};  // release the previous set-up before timing the next
    s = cold_setup(c, [&] {
      Session n;
      n.reader = std::make_unique<data::ShardReader>(shard);
      n.loader = std::make_unique<data::BatchLoader>(*n.reader, kTrainBatch,
                                                     opt.seed);
      if (climate) {
        n.model = std::make_unique<ClimateModel>(train_climate_config());
      } else {
        n.model = std::make_unique<HepModel>(train_hep_config());
      }
      for (int w = 0; w < kWarmupSteps; ++w) {
        n.model->step(n.loader->next());
        n.model->solver().step();
      }
      return n;
    });
  }

  // The measured window. A traced run alternates untraced steps (the
  // Trainable, as users call it) with traced steps (layer by layer, with
  // spans), so both see the same machine and the attribution below
  // compares like with like.
  SpanRecorder untraced(false);
  std::vector<double> untraced_ms, traced_ms, losses;
  s.reader->reset_io_seconds();
  RegistryWindow window;
  const auto t0 = Clock::now();
  const auto t_end = t0 + to_duration(opt.seconds);
  for (std::int64_t step = 0;
       (Clock::now() < t_end || losses.size() < kMinSteps) && r.failed < kMaxFailures;
       ++step) {
    const bool traced = opt.traced && step % 2 == 1;
    SpanRecorder& rec = traced ? c.spans : untraced;
    ++r.attempted;
    const auto t_step = Clock::now();
    try {
      double loss = 0.0;
      {
        ScopedSpan step_span(rec, "step", "step", step);
        data::Batch batch;
        {
          ScopedSpan span(rec, "next", "data", step);
          batch = s.loader->next();
        }
        loss = traced ? s.model->traced_step(batch, rec, step)
                      : s.model->step(batch);
        ScopedSpan span(rec, "step", "solver", step);
        s.model->solver().step();
      }
      (traced ? traced_ms : untraced_ms).push_back(ms_between(t_step, Clock::now()));
      losses.push_back(loss);
      if (!std::isfinite(loss)) ++r.failed;
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, std::string("step threw: ") + e.what());
    }
  }
  const double wall = seconds_between(t0, Clock::now());
  window.close();
  check_loss_falls(r, losses);
  r.detail.set("untraced_steps", untraced_ms.size());
  r.detail.set("step_ms", json_array(untraced_ms));
  if (!opt.traced) {
    c.e2e["img_per_s"] =
        static_cast<double>(untraced_ms.size() * kTrainBatch) / wall;
    c.e2e["lat_ms_p50"] = percentile(untraced_ms, 0.5);
    c.e2e["lat_ms_p90"] = percentile(untraced_ms, 0.9);
    return;
  }

  const double n = static_cast<double>(std::max<std::size_t>(traced_ms.size(), 1));
  const double steps = static_cast<double>(untraced_ms.size() + traced_ms.size());
  r.detail.set("traced_steps", traced_ms.size());
  c.expected_layer_spans = 2 * s.model->layer_count() * traced_ms.size();

  const SpanRecorder& sp = c.spans;
  const double step_ms = sp.sum_ms("step", "step");
  auto pct = [&](double ms) { return step_ms > 0 ? 100.0 * ms / step_ms : 0.0; };
  const double data_ms = sp.sum_ms("next", "data");
  const double fwd_ms = sp.sum_ms("forward", "nn");
  const double loss_ms = sp.sum_ms("loss", "nn");
  const double bwd_ms = sp.sum_ms("backward", "nn");
  const double solver_ms = sp.sum_ms("step", "solver");
  const double attributed = data_ms + fwd_ms + loss_ms + bwd_ms + solver_ms;
  const double sample_bytes =
      static_cast<double>(fx.channels * fx.image * fx.image * sizeof(float));
  c.layer["data.next_ms"] = data_ms / n;
  c.layer["data.read_mb_per_s"] =
      s.reader->io_seconds() > 0
          ? steps * kTrainBatch * sample_bytes / kMiB / s.reader->io_seconds()
          : 0.0;
  c.layer["data.pct_step"] = pct(data_ms);
  c.layer["nn.fwd_pct_step"] = pct(fwd_ms);
  c.layer["nn.loss_pct_step"] = pct(loss_ms);
  c.layer["nn.bwd_pct_step"] = pct(bwd_ms);
  c.layer["solver.pct_step"] = pct(solver_ms);
  c.layer["nn.unattributed_pct_step"] = pct(step_ms - attributed);
  c.layer["sched.tasks_per_step"] = window.delta("pf15_sched_tasks_total") / steps;
  c.layer["sched.steals_per_step"] = window.delta("pf15_sched_steals_total") / steps;

  // The traced parts of a step against the untraced step time: the layers
  // must account for the step, and tracing must not distort it.
  const double untraced_mean = mean(untraced_ms);
  const double ratio = untraced_mean > 0 ? attributed / n / untraced_mean : 0.0;
  perf::Json attribution = perf::Json::object();
  attribution.set("attributed_ms_per_step", attributed / n);
  attribution.set("untraced_step_ms_mean", untraced_mean);
  attribution.set("ratio", ratio);
  attribution.set("within_10pct", std::abs(ratio - 1.0) <= 0.10);
  attribution.set("traced_step_ms_p50", percentile(traced_ms, 0.5));
  attribution.set("untraced_step_ms_p50", percentile(untraced_ms, 0.5));
  r.detail.set("attribution", std::move(attribution));

  std::vector<std::tuple<std::string, double, double>> flops;
  s.model->layer_flops(flops);
  perf::Json ledger = perf::Json::array();
  for (const auto& [name, fwd_flops, bwd_flops] : flops) {
    const double f_ms = sp.sum_ms(name, "fwd");
    const double b_ms = sp.sum_ms(name, "bwd");
    const double gflops =
        f_ms + b_ms > 0 ? (fwd_flops + bwd_flops) * n / ((f_ms + b_ms) / 1e3) / 1e9
                        : 0.0;
    const double peak_pct =
        c.gemm_peak_gflops > 0 ? 100.0 * gflops / c.gemm_peak_gflops : 0.0;
    c.layer["nn." + name + ".fwd_pct_step"] = pct(f_ms);
    c.layer["nn." + name + ".bwd_pct_step"] = pct(b_ms);
    if (is_conv_layer(name)) c.layer["nn." + name + ".pct_peak"] = peak_pct;
    perf::Json row = perf::Json::object();
    row.set("layer", name);
    row.set("fwd_ms", f_ms / n);
    row.set("bwd_ms", b_ms / n);
    row.set("fwd_gflop", fwd_flops / 1e9);
    row.set("bwd_gflop", bwd_flops / 1e9);
    row.set("gflops", gflops);
    row.set("pct_peak", peak_pct);
    row.set("pct_step", pct(f_ms + b_ms));
    ledger.push_back(std::move(row));
  }
  r.detail.set("layers", std::move(ledger));
}

// ---- Serving ---------------------------------------------------------------

/// max over elements of |got - want| / (1 + |want|).
double max_rel_diff(const Tensor& got, const Tensor& want) {
  if (got.numel() != want.numel()) return 1e30;
  double worst = 0.0;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const double w = want.at(i);
    worst = std::max(worst, std::abs(got.at(i) - w) / (1.0 + std::abs(w)));
  }
  return worst;
}

void run_serve(Context& c) {
  const RunOptions& opt = c.opt;
  Result& r = c.result;
  const nn::HepConfig cfg = serve_hep_config();
  const Shape sample_shape{cfg.channels, cfg.image, cfg.image};

  // Request inputs: the fixture's images, read before the clock starts.
  std::vector<Tensor> pool;
  {
    data::ShardReader reader(shard_path(opt));
    data::BatchLoader loader(reader, kServeMaxBatch, opt.seed);
    double data_s = 0.0;
    std::size_t calls = 0;
    while (pool.size() < reader.size()) {
      const auto t0 = Clock::now();
      data::Batch batch = loader.next();
      data_s += seconds_between(t0, Clock::now());
      ++calls;
      for (std::size_t i = 0; i < batch.labels.size(); ++i) {
        pool.push_back(extract_sample(batch.images, i));
      }
    }
    const double bytes = static_cast<double>(pool.size() * sample_shape.numel() *
                                             sizeof(float));
    c.layer["data.next_ms"] = 1e3 * data_s / static_cast<double>(calls);
    c.layer["data.read_mb_per_s"] =
        reader.io_seconds() > 0 ? bytes / kMiB / reader.io_seconds() : 0.0;
  }

  const serve::ModelFactory factory = [cfg] { return nn::build_hep_network(cfg); };
  serve::EngineConfig ec;
  ec.replicas = 2;
  ec.sample_shape = sample_shape;
  ec.batcher.max_batch = kServeMaxBatch;
  ec.batcher.max_wait_us = 500;
  ec.batcher.queue_capacity = 1024;
  ec.compiled = true;

  std::unique_ptr<serve::ServingEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    engine = cold_setup(c, [&] {
      auto e = std::make_unique<serve::ServingEngine>(factory, ec);
      std::vector<std::future<Tensor>> warm;
      for (std::size_t i = 0; i < 2 * kServeMaxBatch; ++i) {
        warm.push_back(e->submit(pool[i % pool.size()]));
      }
      for (auto& f : warm) f.get();
      return e;
    });
  }
  if (const graph::CompileReport* report = engine->compile_report()) {
    c.layer["graph.compile_pct_setup"] =
        100.0 * report->compile_seconds / c.setup.seconds.back();
  }

  struct Checked {
    std::size_t index;
    Tensor output;
  };
  std::vector<Checked> checked;
  std::size_t failed_requests = 0;

  // Open loop: Poisson arrivals at a fixed rate; latency counts from each
  // request's due time, so a stalled generator charges its backlog.
  const double open_s = opt.seconds * kServeOpenShare;
  const std::vector<double> due = poisson_schedule(opt.seed, kServeRate, open_s);
  std::vector<double> late_ms(due.size(), 0.0);
  std::vector<double> lat_ms;
  lat_ms.reserve(due.size());
  std::size_t rejected = 0;
  std::size_t failed_submits = 0;
  RegistryWindow open_window;
  {
    struct InFlight {
      std::size_t index;
      Clock::time_point due;
      std::future<Tensor> result;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<InFlight> queue;
    bool done = false;
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::jthread generator([&] {
      for (std::size_t i = 0; i < due.size(); ++i) {
        const auto when = start + to_duration(due[i]);
        std::this_thread::sleep_until(when);
        late_ms[i] = ms_between(when, Clock::now());
        std::optional<std::future<Tensor>> fut;
        try {
          fut = engine->try_submit(pool[i % pool.size()]);
        } catch (const std::exception&) {
          ++failed_submits;
          continue;
        }
        if (!fut) {
          ++rejected;
          continue;
        }
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back({i, when, std::move(*fut)});
        ready.notify_one();
      }
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
      ready.notify_one();
    });
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) break;
        item = std::move(queue.front());
        queue.pop_front();
      }
      try {
        Tensor out = item.result.get();
        const auto now = Clock::now();
        lat_ms.push_back(ms_between(item.due, now));
        c.spans.add("request", "serve", item.due, now,
                    static_cast<std::int64_t>(item.index), 1);
        if (item.index % kCheckEvery == 0) {
          checked.push_back({item.index, std::move(out)});
        }
      } catch (const std::exception&) {
        ++failed_requests;
      }
    }
  }
  open_window.close();
  r.attempted += due.size();
  failed_requests += failed_submits;

  // Closed loop: kServeOutstanding requests always in flight; capacity is
  // completions per second.
  const double closed_s = opt.seconds - open_s;
  std::deque<std::pair<std::size_t, std::future<Tensor>>> ring;
  std::size_t next = due.size();
  auto submit = [&] {
    ring.emplace_back(next, engine->submit(pool[next % pool.size()]));
    ++next;
    ++r.attempted;
  };
  auto collect = [&](std::pair<std::size_t, std::future<Tensor>>& item) {
    try {
      Tensor out = item.second.get();
      if (item.first % kCheckEvery == 0) {
        checked.push_back({item.first, std::move(out)});
      }
      return true;
    } catch (const std::exception&) {
      ++failed_requests;
      return false;
    }
  };
  for (std::size_t i = 0; i < kServeOutstanding; ++i) submit();
  const auto t0 = Clock::now();
  const auto t_end = t0 + to_duration(closed_s);
  std::size_t completed = 0;
  while (Clock::now() < t_end) {
    auto item = std::move(ring.front());
    ring.pop_front();
    if (collect(item)) ++completed;
    submit();
  }
  const double closed_wall = seconds_between(t0, Clock::now());
  for (auto& item : ring) collect(item);
  const serve::ServingStats stats = engine->stats();
  engine.reset();

  // Every 64th output against eager Sequential::forward.
  nn::Sequential reference = factory();
  reference.set_training(false);
  std::size_t mismatches = 0;
  double worst = 0.0;
  for (const Checked& ch : checked) {
    const Tensor& sample = pool[ch.index % pool.size()];
    const Tensor& want = reference.forward(stack_samples({&sample}));
    const double d = max_rel_diff(ch.output, want);
    worst = std::max(worst, d);
    if (d > kServeTolerance) ++mismatches;
  }
  r.failed += rejected + failed_requests + mismatches;
  r.check(!checked.empty(), "no served output was checked");
  r.check(mismatches == 0, std::to_string(mismatches) + " of " +
                               std::to_string(checked.size()) +
                               " checked outputs differ from eager forward "
                               "by more than 1e-4");
  r.check(rejected == 0, std::to_string(rejected) + " requests rejected");
  r.check(failed_requests == 0,
          std::to_string(failed_requests) + " requests failed");

  c.e2e["img_per_s"] = static_cast<double>(completed) / closed_wall;
  c.e2e["lat_ms_p50"] = percentile(lat_ms, 0.5);
  c.e2e["lat_ms_p90"] = percentile(lat_ms, 0.9);
  perf::Json serve_detail = perf::Json::object();
  serve_detail.set("open_requests", due.size());
  serve_detail.set("open_rate_per_s", static_cast<double>(due.size()) / open_s);
  serve_detail.set("lat_ms_p99", percentile(lat_ms, 0.99));
  serve_detail.set("lat_ms_p999", percentile(lat_ms, 0.999));
  serve_detail.set("gen_late_ms_max",
                   late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()));
  serve_detail.set("closed_completed", completed);
  serve_detail.set("checked_outputs", checked.size());
  serve_detail.set("max_rel_diff", worst);
  serve_detail.set("engine_mean_batch", stats.mean_batch_size);
  r.detail.set("serve", std::move(serve_detail));

  const double batches = open_window.delta("pf15_serve_batches_total");
  const double batch_n = open_window.delta("pf15_serve_batch_size", "count");
  const double wait_n = open_window.delta("pf15_serve_queue_wait_seconds", "count");
  const double lat_n = open_window.delta("pf15_serve_latency_seconds", "count");
  const double wait_mean =
      wait_n > 0 ? open_window.delta("pf15_serve_queue_wait_seconds", "sum") / wait_n : 0.0;
  const double lat_mean =
      lat_n > 0 ? open_window.delta("pf15_serve_latency_seconds", "sum") / lat_n : 0.0;
  c.layer["sched.tasks_per_step"] =
      batches > 0 ? open_window.delta("pf15_sched_tasks_total") / batches : 0.0;
  c.layer["sched.steals_per_step"] =
      batches > 0 ? open_window.delta("pf15_sched_steals_total") / batches : 0.0;
  c.layer["serve.mean_batch"] =
      batch_n > 0 ? open_window.delta("pf15_serve_batch_size", "sum") / batch_n : 0.0;
  c.layer["serve.queue_wait_pct_lat"] = lat_mean > 0 ? 100.0 * wait_mean / lat_mean : 0.0;
  const double p50 = percentile(lat_ms, 0.5);
  c.layer["serve.p999_per_p50"] = p50 > 0 ? percentile(lat_ms, 0.999) / p50 : 0.0;
  c.layer["serve.late_send_pct"] =
      late_ms.empty()
          ? 0.0
          : 100.0 *
                static_cast<double>(std::count_if(late_ms.begin(), late_ms.end(),
                                                  [](double x) { return x > kLateMs; })) /
                static_cast<double>(late_ms.size());

  if (opt.traced) {
    // A private compiled plan of the served model at batch 1 and 16.
    nn::Sequential net = factory();
    net.set_training(false);
    graph::CompileOptions co;
    co.max_batch = kServeMaxBatch;
    graph::CompiledPlan plan = graph::compile(net, sample_shape, co);
    std::vector<const Tensor*> rows;
    for (std::size_t i = 0; i < kServeMaxBatch; ++i) rows.push_back(&pool[i]);
    const Tensor b1 = stack_samples({rows[0]});
    const Tensor b16 = stack_samples(rows);
    auto runs_per_s = [&](const Tensor& in, const char* name) {
      std::size_t runs = 0;
      const auto start = Clock::now();
      const auto end = start + std::chrono::milliseconds(300);
      while (Clock::now() < end || runs < 5) {
        ScopedSpan span(c.spans, name, "graph", static_cast<std::int64_t>(runs));
        plan.run(in);
        ++runs;
      }
      return static_cast<double>(runs) / seconds_between(start, Clock::now());
    };
    c.layer["graph.b1_runs_per_s"] = runs_per_s(b1, "run_b1");
    c.layer["graph.b16_img_per_s"] =
        static_cast<double>(kServeMaxBatch) * runs_per_s(b16, "run_b16");
    c.layer["graph.arena_mb"] =
        static_cast<double>(plan.arena_bytes(kServeMaxBatch)) / kMiB;
  }
}

// ---- Hybrid training -------------------------------------------------------

/// The HEP Trainable behind a timer: the benchmark's view of the compute
/// a hybrid worker spends, without the data it waits for.
class TimedHep final : public hybrid::TrainableModel {
 public:
  TimedHep(const nn::HepConfig& cfg, SpanRecorder& spans,
           std::atomic<std::int64_t>& compute_ns)
      : model_(cfg), spans_(spans), compute_ns_(compute_ns) {}

  double train_step(const data::Batch& batch) override {
    const auto t0 = Clock::now();
    const double loss = model_.train_step(batch);
    const auto t1 = Clock::now();
    compute_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    spans_.add("compute", "hybrid", t0, t1, -1, lane());
    return loss;
  }

  std::vector<nn::Param> params() override { return model_.params(); }

 private:
  hybrid::HepTrainable model_;
  SpanRecorder& spans_;
  std::atomic<std::int64_t>& compute_ns_;
};

void run_hybrid(Context& c) {
  const RunOptions& opt = c.opt;
  Result& r = c.result;
  const nn::HepConfig cfg = hybrid_hep_config();
  const Fixture fx = fixture_for(opt.workload);
  const int workers = hybrid_run_config(1).num_workers;

  // One loader per worker rank: each is touched only by its rank's thread.
  struct RankData {
    std::unique_ptr<data::ShardReader> reader;
    std::unique_ptr<data::BatchLoader> loader;
    double data_s = 0.0;
    std::size_t calls = 0;
  };
  std::vector<RankData> ranks(static_cast<std::size_t>(workers));
  for (int k = 0; k < workers; ++k) {
    RankData& rd = ranks[static_cast<std::size_t>(k)];
    rd.reader = std::make_unique<data::ShardReader>(shard_path(opt));
    rd.loader = std::make_unique<data::BatchLoader>(
        *rd.reader, kHybridBatch, opt.seed * 1000003ULL + static_cast<std::uint64_t>(k));
  }
  std::atomic<std::int64_t> compute_ns{0};
  hybrid::BatchSource source = [&](int rank, std::size_t iteration) {
    RankData& rd = ranks.at(static_cast<std::size_t>(rank));
    const auto t0 = Clock::now();
    data::Batch batch = rd.loader->next();
    const auto t1 = Clock::now();
    rd.data_s += seconds_between(t0, t1);
    ++rd.calls;
    c.spans.add("next", "data", t0, t1, static_cast<std::int64_t>(iteration), lane());
    return batch;
  };
  hybrid::ModelFactory factory = [&] {
    return std::make_unique<TimedHep>(cfg, c.spans, compute_ns);
  };

  // Set-up: a short job from a cold plan cache (cluster start, model
  // construction on every rank, first-sight tuning).
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cold_setup(c, [&] {
      hybrid::HybridTrainer trainer(hybrid_run_config(kWarmupSteps), factory,
                                    source);
      return trainer.run();
    });
  }
  // A fixed amount of work per second of window, so every run of every
  // commit trains the same job.
  const std::size_t iterations = static_cast<std::size_t>(
      std::lround(kHybridIterationsPerSecond * opt.seconds));

  compute_ns = 0;
  for (RankData& rd : ranks) {
    rd.data_s = 0.0;
    rd.calls = 0;
    rd.reader->reset_io_seconds();
  }
  RegistryWindow window;
  hybrid::HybridTrainer trainer(hybrid_run_config(iterations), factory, source);
  const hybrid::TrainResult res = trainer.run();
  window.close();

  const std::size_t group_images =
      kHybridBatch * static_cast<std::size_t>(workers / hybrid_run_config(1).num_groups);
  std::vector<double> step_ms, losses;
  double wall = 0.0;
  for (const auto& rec : res.records) {
    step_ms.push_back(1e3 * rec.step_seconds);
    losses.push_back(rec.loss);
    wall = std::max(wall, rec.wall_time);
    ++r.attempted;
    if (!std::isfinite(rec.loss)) ++r.failed;
  }
  bool params_finite = !res.final_params.empty();
  for (const Tensor& t : res.final_params) params_finite = params_finite && t.all_finite();
  r.check(params_finite, "final parameters are not finite");
  check_loss_falls(r, losses);
  r.detail.set("iterations", iterations);
  r.detail.set("step_ms", json_array(step_ms));

  c.e2e["img_per_s"] =
      wall > 0 ? static_cast<double>(res.records.size() * group_images) / wall : 0.0;
  c.e2e["lat_ms_p50"] = percentile(step_ms, 0.5);
  c.e2e["lat_ms_p90"] = percentile(step_ms, 0.9);

  double data_s = 0.0, io_s = 0.0;
  std::size_t calls = 0;
  for (const RankData& rd : ranks) {
    data_s += rd.data_s;
    io_s += rd.reader->io_seconds();
    calls += rd.calls;
  }
  double compute_us = 0, allreduce_us = 0, ps_us = 0, bcast_us = 0, wire = 0;
  for (const obs::IterationRecord& f : res.flight) {
    compute_us += f.compute_us;
    allreduce_us += f.allreduce_us;
    ps_us += f.ps_exchange_us;
    bcast_us += f.broadcast_us;
    wire += static_cast<double>(f.wire_bytes);
  }
  const double total_us = compute_us + allreduce_us + ps_us + bcast_us;
  auto pct = [&](double us) { return total_us > 0 ? 100.0 * us / total_us : 0.0; };
  const double sample_bytes =
      static_cast<double>(fx.channels * fx.image * fx.image * sizeof(float));
  const double iters = static_cast<double>(iterations);
  c.layer["data.next_ms"] = calls ? 1e3 * data_s / static_cast<double>(calls) : 0.0;
  c.layer["data.read_mb_per_s"] =
      io_s > 0 ? static_cast<double>(calls * kHybridBatch) * sample_bytes / kMiB / io_s : 0.0;
  c.layer["sched.tasks_per_step"] = window.delta("pf15_sched_tasks_total") / iters;
  c.layer["sched.steals_per_step"] = window.delta("pf15_sched_steals_total") / iters;
  c.layer["hybrid.data_pct_iter"] = pct(1e6 * data_s);
  c.layer["hybrid.compute_pct_iter"] = pct(1e-3 * static_cast<double>(compute_ns.load()));
  c.layer["comm.allreduce_pct_iter"] = pct(allreduce_us);
  c.layer["ps.exchange_pct_iter"] = pct(ps_us);
  c.layer["comm.broadcast_pct_iter"] = pct(bcast_us);
  c.layer["comm.wire_mb_per_iter"] = wire / iters / kMiB;
  const double raw = window.delta("pf15_ps_encode_raw_bytes_total");
  c.layer["ps.compression_ratio"] =
      raw > 0 ? window.delta("pf15_ps_encode_wire_bytes_total") / raw : 0.0;
  c.layer["ps.staleness_mean"] = res.staleness.mean();
}

// ---- Trace file ------------------------------------------------------------

/// Writes the spans as chrome://tracing JSON, parses the file back and
/// checks it holds exactly one span per (layer, phase, step) — none for
/// the workloads that do not drive layers one by one.
void write_trace(Context& c, const std::string& path) {
  c.spans.chrome_trace().write_file(path, 0);
  const perf::Json doc = perf::Json::read_file(path);
  const perf::Json& events = doc.get("traceEvents");
  std::set<std::tuple<std::string, std::string, double>> layer_spans;
  std::size_t layer_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const perf::Json& e = events.at(i);
    const std::string& cat = e.get("cat").as_string();
    if (cat != "fwd" && cat != "bwd") continue;
    ++layer_events;
    layer_spans.emplace(e.get("name").as_string(), cat,
                        e.get("args").get("step").as_number());
  }
  c.result.check(events.size() > 0, "trace " + path + " holds no span");
  c.result.check(layer_events == layer_spans.size() &&
                     layer_events == c.expected_layer_spans,
                 "trace " + path + " holds " + std::to_string(layer_events) +
                     " layer spans (" + std::to_string(layer_spans.size()) +
                     " distinct), expected one per (layer, phase, step): " +
                     std::to_string(c.expected_layer_spans));
  c.result.detail.set("trace_file", path);
  c.result.detail.set("trace_spans", events.size());
}

}  // namespace

void ensure_fixtures(const std::string& workload, std::uint64_t seed,
                     const std::string& data_dir) {
  const Fixture fx = fixture_for(workload);
  const std::string path = data_dir + "/" + fx.file;
  if (fixture_valid(fx, path)) return;
  std::filesystem::create_directories(data_dir);
  write_fixture(fx, seed, path);
  PF15_CHECK_MSG(fixture_valid(fx, path), "fixture " << path << " is invalid");
}

Result run_workload(const RunOptions& opt, SpanRecorder& spans) {
  Result r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  r.traced = opt.traced;
  Context c{opt, spans, r, {}, {}, {}, 0.0, 0};
  if (opt.traced) c.gemm_peak_gflops = gemm_peak_gflops();

  if (opt.workload == "train_hep" || opt.workload == "train_climate") {
    run_train(c);
  } else if (opt.workload == "serve_hep") {
    run_serve(c);
  } else if (opt.workload == "hybrid_hep") {
    run_hybrid(c);
  } else {
    throw ConfigError("unknown workload '" + opt.workload + "'");
  }

  c.e2e["setup_s"] = median(c.setup.seconds);
  c.e2e["peak_rss_mb"] = peak_rss_mb();
  c.layer["gemm.peak_gflops"] = c.gemm_peak_gflops;
  c.layer["gemm.tune_s"] = median(c.setup.tune_seconds);
  c.layer["gemm.tunes"] = c.setup.tunes;
  r.check(r.failed == 0, std::to_string(r.failed) + " of " +
                             std::to_string(r.attempted) + " operations failed");

  r.detail.set("setup_s_reps", json_array(c.setup.seconds));
  // The backends the last cold set-up's tuning chose: a run that picked
  // other winners can differ in speed for that reason alone.
  r.detail.set("conv_plans", perf::Json::parse(gemm::ConvPlanCache::global().dump()));
  perf::Json e2e = perf::Json::object();
  for (const auto& [name, value] : c.e2e) e2e.set(name, value);
  r.detail.set("end_to_end", std::move(e2e));

  if (opt.traced) {
    for (const MetricSpec& m : per_layer_metrics()) {
      const auto it = c.layer.find(m.name);
      r.add(m.name, it == c.layer.end() ? 0.0 : it->second, m.unit,
            m.lower_is_better);
    }
    write_trace(c, "trace_" + opt.workload + ".json");
  } else {
    for (const MetricSpec& m : end_to_end_metrics()) {
      const auto it = c.e2e.find(m.name);
      const double v = it == c.e2e.end() ? 0.0 : it->second;
      r.check(v > 0, m.name + " read " + std::to_string(v));
      r.add(m.name, v, m.unit, m.lower_is_better);
    }
  }
  return r;
}

}  // namespace pf15::bench
