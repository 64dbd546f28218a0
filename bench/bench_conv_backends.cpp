// Convolution backend sweep: every registered gemm::ConvBackend timed on
// representative HEP-net and climate-net layer geometries — forward,
// backward-data and backward-filter — compared with the autotune plan
// cache's per-phase pick, plus a batched mode that drives the nn::Conv2d
// scheduler batch loop end to end (forward and backward). The climate
// decoder's two largest deconvolutions get the same per-phase sweep and
// a batched nn::Deconv2d run in a separate "decoder" section; the summary
// and the exit code cover the convolution geometries only. Everything is
// recorded as a machine-readable JSON perf record
// (BENCH_conv_backends.json) so the perf trajectory of the system's
// hottest path is tracked PR over PR.
//
// With --cache PATH the tuned plans persist across runs through
// ConvPlanCache::save/load; --require-warm turns "the second run tunes
// nothing" into an exit-code check (the warm-start acceptance).
//
// Usage: bench_conv_backends [--json PATH] [--reps N] [--batch N]
//                            [--cache PATH] [--no-sweep] [--require-warm]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/task_scheduler.hpp"
#include "common/timer.hpp"
#include "gemm/conv_backend.hpp"
#include "nn/conv2d.hpp"
#include "nn/deconv2d.hpp"
#include "perf/json.hpp"
#include "perf/report.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pf15;

struct NamedProblem {
  const char* name;
  const char* net;  // which paper network the geometry comes from
  gemm::ConvProblem problem;
  bool wide_tile = false;  // wide-tile climate class (counted in the summary)
};

gemm::ConvProblem make_problem(std::size_t in_c, std::size_t out_c,
                               std::size_t hw, std::size_t kernel,
                               std::size_t stride, std::size_t pad) {
  gemm::ConvProblem p;
  p.geom.in_c = in_c;
  p.geom.in_h = p.geom.in_w = hw;
  p.geom.kernel_h = p.geom.kernel_w = kernel;
  p.geom.stride_h = p.geom.stride_w = stride;
  p.geom.pad_h = p.geom.pad_w = pad;
  p.out_c = out_c;
  return p;
}

// Layer geometries of the two paper networks (§III-A, §III-B). HEP: five
// 3x3/1 conv units at halving resolution (224 -> 14). Climate: 5x5/2
// encoder stages and 3x3/1 detection heads on the coarse grid
// (768 >> 5 = 24). Spatial sizes of the earliest stages are reduced to
// keep the bench under a few minutes; channel structure is kept exact.
std::vector<NamedProblem> geometries() {
  return {
      {"hep.conv1_scaled", "hep", make_problem(3, 128, 56, 3, 1, 1)},
      {"hep.conv3", "hep", make_problem(128, 128, 28, 3, 1, 1)},
      {"hep.conv5", "hep", make_problem(128, 128, 14, 3, 1, 1)},
      {"climate.enc1_scaled", "climate", make_problem(16, 128, 48, 5, 2, 2)},
      {"climate.enc4_scaled", "climate", make_problem(512, 768, 12, 5, 2, 2)},
      {"climate.head_conf", "climate", make_problem(1024, 1, 24, 3, 1, 1)},
      {"climate.head_cls", "climate", make_problem(1024, 4, 24, 3, 1, 1)},
      // Wide-tile climate variant: a 3x3 layer on a wide spatial tile
      // (the §III-B 768² storm fields), the class where the Winograd
      // backward wins. The summary counts how many of its backward
      // phases picked a non-im2col backend.
      {"climate.wide_3x3", "climate", make_problem(32, 32, 96, 3, 1, 1),
       /*wide_tile=*/true},
  };
}

// The climate decoder's two largest 6x6/2 pad-2 deconvolutions at the
// benchmarked training scale (64 px, 16 channels, widths {16, 32, ...}),
// as the convolutions they run: in_c and hw are a deconv's output
// channels and side, out_c its input channels.
std::vector<NamedProblem> decoder_geometries() {
  return {
      {"climate.dec_deconv4", "climate", make_problem(16, 32, 32, 6, 2, 2)},
      {"climate.dec_deconv5", "climate", make_problem(16, 16, 64, 6, 2, 2)},
  };
}

perf::Json geometry_record(const NamedProblem& np) {
  perf::Json geom = perf::Json::object();
  geom.set("in_c", np.problem.geom.in_c);
  geom.set("out_c", np.problem.out_c);
  geom.set("hw", np.problem.geom.in_h);
  geom.set("kernel", np.problem.geom.kernel_h);
  geom.set("stride", np.problem.geom.stride_h);
  geom.set("pad", np.problem.geom.pad_h);
  return geom;
}

/// Times `reps` calls of `fn` (one untimed warmup), returns min seconds.
template <typename Fn>
double time_min(std::size_t reps, const Fn& fn) {
  fn();
  double best = 0.0;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, reps); ++i) {
    WallTimer timer;
    fn();
    const double s = timer.seconds();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_conv_backends.json";
  std::string cache_path;
  std::size_t batch = 8;
  bool no_sweep = false;
  bool require_warm = false;
  gemm::AutotuneOptions opt;
  opt.reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opt.reps = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      no_sweep = true;
    } else if (std::strcmp(argv[i], "--require-warm") == 0) {
      require_warm = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--reps N] [--batch N] "
                   "[--cache PATH] [--no-sweep] [--require-warm]\n",
                   argv[0]);
      return 2;
    }
  }

  gemm::ConvPlanCache cache(opt);
  bool warm_start = false;
  if (!cache_path.empty()) {
    try {
      cache.load(cache_path);
      warm_start = true;
      std::printf("loaded %zu plans from %s\n", cache.size(),
                  cache_path.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "cold start (%s)\n", e.what());
    }
  }

  perf::Table table({"geometry", "phase", "backend", "us/img", "GFLOP/s",
                     "chosen"});
  perf::Json record = perf::Json::object();
  record.set("bench", "conv_backends");
  record.set("unit", "microseconds_per_image");
  record.set("threads", TaskScheduler::global().size());
  record.set("reps", opt.reps);
  record.set("batch", batch);
  record.set("warm_start", warm_start);
  perf::Json rows = perf::Json::array();

  bool fwd_never_slower = true;
  bool bwd_never_slower = true;
  std::size_t non_im2col_hep = 0;
  std::size_t non_im2col_climate = 0;
  std::size_t wide_tiles = 0;
  std::size_t non_im2col_wide_backward = 0;

  // One phase of one problem: every applicable backend's per-image time
  // (unless --no-sweep) and the plan cache's pick. Returns whether the
  // pick is no slower than im2col.
  const auto sweep_phase = [&](const NamedProblem& np,
                               gemm::ConvPhase phase,
                               const gemm::ConvPlan& plan,
                               perf::Json& phases) {
    perf::Json phase_rec = perf::Json::object();
    if (!no_sweep) {
      perf::Json backends = perf::Json::array();
      // The same candidates autotune races.
      for (const gemm::ConvBackend* b :
           gemm::applicable_backends(np.problem, phase)) {
        perf::Json entry = perf::Json::object();
        entry.set("backend", b->name());
        const double b_flops =
            static_cast<double>(b->flops(np.problem, phase));
        const double us = gemm::benchmark_backend(*b, np.problem, opt, phase);
        entry.set("us_per_image", us);
        entry.set("gflops", b_flops / us * 1e-3);
        backends.push_back(std::move(entry));
        table.add_row({np.name, gemm::to_string(phase), b->name(),
                       perf::Table::num(us, 1),
                       perf::Table::num(b_flops / us * 1e-3, 2),
                       b->kind() == plan.kind ? "<== plan" : ""});
      }
      phase_rec.set("backends", std::move(backends));
    }

    perf::Json chosen = perf::Json::object();
    chosen.set("backend", gemm::to_string(plan.kind));
    chosen.set("us_per_image", plan.best_us);
    chosen.set("im2col_us", plan.im2col_us);
    chosen.set("speedup_vs_im2col",
               plan.best_us > 0 ? plan.im2col_us / plan.best_us : 0.0);
    // The plan is the argmin of the same micro-benchmark that produced
    // im2col_us, so this holds by construction up to re-measure noise.
    const bool not_slower = plan.best_us <= plan.im2col_us * 1.0001;
    chosen.set("not_slower_than_im2col", not_slower);
    phase_rec.set("plan", std::move(chosen));
    phases.set(gemm::to_string(phase), std::move(phase_rec));
    return not_slower;
  };
  // Installs the tuned plans into the global cache, so a kAuto layer
  // dispatches to exactly the plans measured above.
  const auto install_plans = [&](const gemm::ConvProblem& p) {
    for (const gemm::ConvPhase phase : gemm::kAllConvPhases) {
      gemm::ConvPlanCache::global().insert(p, phase, cache.plan(p, phase));
    }
  };

  for (const NamedProblem& np : geometries()) {
    perf::Json row = perf::Json::object();
    row.set("name", np.name);
    row.set("net", np.net);
    row.set("wide_tile", np.wide_tile);
    if (np.wide_tile) ++wide_tiles;
    row.set("geometry", geometry_record(np));

    perf::Json phases = perf::Json::object();
    for (const gemm::ConvPhase phase : gemm::kAllConvPhases) {
      const gemm::ConvPlan plan = cache.plan(np.problem, phase);
      const bool not_slower = sweep_phase(np, phase, plan, phases);

      if (phase == gemm::ConvPhase::kForward) {
        fwd_never_slower = fwd_never_slower && not_slower;
        if (plan.kind != gemm::ConvBackendKind::kIm2col) {
          if (std::strcmp(np.net, "hep") == 0) ++non_im2col_hep;
          if (std::strcmp(np.net, "climate") == 0) ++non_im2col_climate;
        }
      } else {
        bwd_never_slower = bwd_never_slower && not_slower;
        if (np.wide_tile && plan.kind != gemm::ConvBackendKind::kIm2col) {
          ++non_im2col_wide_backward;
        }
      }
    }
    row.set("phases", std::move(phases));

    if (!no_sweep && batch > 1) {
      // End-to-end scheduler batch loop through the nn::Conv2d layer,
      // forward and backward over a full batch.
      install_plans(np.problem);
      Rng rng(0x9f15);
      nn::Conv2dConfig cfg;
      cfg.in_channels = np.problem.geom.in_c;
      cfg.out_channels = np.problem.out_c;
      cfg.kernel = np.problem.geom.kernel_h;
      cfg.stride = np.problem.geom.stride_h;
      cfg.pad = np.problem.geom.pad_h;
      cfg.algo = nn::ConvAlgo::kAuto;
      nn::Conv2d conv("bench", cfg, rng);
      Tensor input(Shape{batch, np.problem.geom.in_c, np.problem.geom.in_h,
                         np.problem.geom.in_w});
      input.fill_uniform(rng, -1.0f, 1.0f);
      Tensor out, din;
      const double fwd_s =
          time_min(opt.reps, [&] { conv.forward(input, out); });
      Tensor dout(out.shape());
      dout.fill_uniform(rng, -1.0f, 1.0f);
      const double bwd_s =
          time_min(opt.reps, [&] { conv.backward(input, dout, din); });

      perf::Json batched = perf::Json::object();
      batched.set("batch", batch);
      batched.set("forward_us_per_image",
                  fwd_s * 1e6 / static_cast<double>(batch));
      batched.set("backward_us_per_image",
                  bwd_s * 1e6 / static_cast<double>(batch));
      batched.set("forward_backend",
                  gemm::to_string(conv.last_forward_backend()));
      batched.set("backward_data_backend",
                  gemm::to_string(conv.last_backward_data_backend()));
      batched.set("backward_filter_backend",
                  gemm::to_string(conv.last_backward_filter_backend()));
      row.set("batched", std::move(batched));
      table.add_row({np.name, "batched fwd",
                     gemm::to_string(conv.last_forward_backend()),
                     perf::Table::num(fwd_s * 1e6 / batch, 1), "", ""});
      table.add_row({np.name, "batched bwd",
                     gemm::to_string(conv.last_backward_data_backend()),
                     perf::Table::num(bwd_s * 1e6 / batch, 1), "", ""});
    }

    rows.push_back(std::move(row));
  }
  // The summary's counters, like its other fields, cover the convolution
  // geometries alone.
  const std::uint64_t first_sight_tunes = cache.misses();
  const std::uint64_t cache_hits = cache.hits();

  // The decoder section: per-phase sweep and plans as above, and the
  // batched nn::Deconv2d loop. Remember the swap: the layer's forward
  // runs the convolution's backward_data phase, its backward runs the
  // forward and backward_filter phases.
  perf::Json decoder_rows = perf::Json::array();
  for (const NamedProblem& np : decoder_geometries()) {
    perf::Json row = perf::Json::object();
    row.set("name", np.name);
    row.set("net", np.net);
    row.set("geometry", geometry_record(np));
    perf::Json phases = perf::Json::object();
    for (const gemm::ConvPhase phase : gemm::kAllConvPhases) {
      sweep_phase(np, phase, cache.plan(np.problem, phase), phases);
    }
    row.set("phases", std::move(phases));

    if (!no_sweep && batch > 1) {
      install_plans(np.problem);
      Rng rng(0x9f15);
      nn::Deconv2dConfig cfg;
      cfg.in_channels = np.problem.out_c;
      cfg.out_channels = np.problem.geom.in_c;
      cfg.kernel = np.problem.geom.kernel_h;
      cfg.stride = np.problem.geom.stride_h;
      cfg.pad = np.problem.geom.pad_h;
      cfg.algo = nn::ConvAlgo::kAuto;
      nn::Deconv2d deconv("bench", cfg, rng);
      Tensor input(Shape{batch, np.problem.out_c, np.problem.geom.out_h(),
                         np.problem.geom.out_w()});
      input.fill_uniform(rng, -1.0f, 1.0f);
      Tensor out, din;
      const double fwd_s =
          time_min(opt.reps, [&] { deconv.forward(input, out); });
      Tensor dout(out.shape());
      dout.fill_uniform(rng, -1.0f, 1.0f);
      const double bwd_s =
          time_min(opt.reps, [&] { deconv.backward(input, dout, din); });

      perf::Json batched = perf::Json::object();
      batched.set("batch", batch);
      batched.set("forward_us_per_image",
                  fwd_s * 1e6 / static_cast<double>(batch));
      batched.set("backward_us_per_image",
                  bwd_s * 1e6 / static_cast<double>(batch));
      // Keyed by convolution phase, like "phases".
      perf::Json backends = perf::Json::object();
      for (const gemm::ConvPhase phase : gemm::kAllConvPhases) {
        backends.set(gemm::to_string(phase),
                     gemm::to_string(deconv.phase_backend(input.shape(),
                                                          phase)));
      }
      batched.set("phase_backends", std::move(backends));
      row.set("batched", std::move(batched));
      table.add_row(
          {np.name, "batched fwd",
           gemm::to_string(deconv.phase_backend(
               input.shape(), gemm::ConvPhase::kBackwardData)),
           perf::Table::num(fwd_s * 1e6 / batch, 1), "", ""});
      table.add_row({np.name, "batched bwd",
                     gemm::to_string(deconv.phase_backend(
                         input.shape(), gemm::ConvPhase::kForward)),
                     perf::Table::num(bwd_s * 1e6 / batch, 1), "", ""});
    }
    decoder_rows.push_back(std::move(row));
  }

  record.set("geometries", std::move(rows));
  record.set("decoder", std::move(decoder_rows));
  perf::Json summary = perf::Json::object();
  summary.set("plan_never_slower_than_im2col", fwd_never_slower);
  summary.set("backward_plans_never_slower_than_im2col", bwd_never_slower);
  summary.set("non_im2col_hep_geometries", non_im2col_hep);
  summary.set("non_im2col_climate_geometries", non_im2col_climate);
  // 2·wide_tiles backward phases total; a non-zero count here means a
  // non-im2col backend wins a wide-tile backward phase.
  summary.set("wide_tile_geometries", wide_tiles);
  summary.set("non_im2col_wide_backward_plans", non_im2col_wide_backward);
  summary.set("first_sight_tunes", first_sight_tunes);
  summary.set("cache_hits", cache_hits);
  record.set("summary", std::move(summary));
  record.write_file(json_path);

  if (!cache_path.empty()) {
    cache.save(cache_path);
    std::printf("saved %zu plans to %s\n", cache.size(), cache_path.c_str());
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("forward plans never slower than im2col: %s\n",
              fwd_never_slower ? "yes" : "NO");
  std::printf("backward plans never slower than im2col: %s\n",
              bwd_never_slower ? "yes" : "NO");
  std::printf("non-im2col forward plans: hep %zu, climate %zu\n",
              non_im2col_hep, non_im2col_climate);
  std::printf("non-im2col backward plans on wide tiles: %zu (of %zu "
              "wide-tile backward phases)\n",
              non_im2col_wide_backward, 2 * wide_tiles);
  std::printf("first-sight tunes this run: %llu\n",
              static_cast<unsigned long long>(first_sight_tunes));
  std::printf("wrote %s\n", json_path.c_str());

  // Warm-start acceptance: with a loaded cache, every plan request above
  // must have been a hit.
  if (require_warm && first_sight_tunes > 0) {
    std::fprintf(stderr, "FAIL: expected a warm cache but %llu problems "
                         "tuned from scratch\n",
                 static_cast<unsigned long long>(first_sight_tunes));
    return 3;
  }
  // The acceptance bar for the autotuner: at least one HEP and one
  // climate geometry must beat im2col forward, and no chosen plan (any
  // phase) may be slower than the reference it raced against.
  if (!fwd_never_slower || !bwd_never_slower || non_im2col_hep == 0 ||
      non_im2col_climate == 0) {
    return 1;
  }
  return 0;
}
