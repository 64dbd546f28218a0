// Kernel microbenchmarks (google-benchmark): SGEMM across deep-learning
// shapes, convolution forward/backward across every registered backend,
// the im2col/col2im lowering, and all-reduce payloads. These are the
// per-kernel numbers behind the Fig 5 profile. The JSON perf record comes
// from the always-built sibling, bench_conv_backends.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "common/rng.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "gemm/im2col.hpp"
#include "nn/conv2d.hpp"

namespace {

using namespace pf15;

void BM_SgemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(gemm::flops(n, n, n)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Scalar-vs-SIMD A/B of the same packed GEMM through sgemm_at: range(0)
// is the square size, range(1) the gemm::SimdLevel. A tier absent on the
// running machine (AVX2 on a scalar-only box) is skipped, not faked.
void BM_SgemmAtLevel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto level = static_cast<gemm::SimdLevel>(state.range(1));
  if (static_cast<int>(level) > static_cast<int>(gemm::simd_detected_level())) {
    state.SkipWithError("tier not available on this CPU");
    return;
  }
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm::sgemm_at(level, false, false, n, n, n, 1.0f, a.data(), n,
                   b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(gemm::to_string(level));
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(gemm::flops(n, n, n)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmAtLevel)
    ->ArgsProduct({{256, 512, 1024},
                   {static_cast<long>(gemm::SimdLevel::kScalar),
                    static_cast<long>(gemm::SimdLevel::kAvx2)}});

// Tall-skinny GEMM: the conv-as-GEMM shape with minibatch-like N
// (DeepBench's problem class).
void BM_SgemmTallSkinny(benchmark::State& state) {
  const auto batch_like = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 128, k = 1152;  // 128 filters, 128*3*3 taps
  Rng rng(1);
  std::vector<float> a(m * k), b(k * batch_like), c(m * batch_like);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm::sgemm(false, false, m, batch_like, k, 1.0f, a.data(), k,
                b.data(), batch_like, 0.0f, c.data(), batch_like);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(gemm::flops(m, batch_like, k)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmTallSkinny)->Arg(4)->Arg(16)->Arg(196)->Arg(3136);

void BM_ConvForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Conv2dConfig cfg{64, 64, 3, 1, 1, true};
  nn::Conv2d conv("bench", cfg, rng);
  Tensor in(Shape{batch, 64, 28, 28});
  in.fill_uniform(rng, -1.0f, 1.0f);
  Tensor out;
  conv.forward(in, out);  // warmup/alloc
  for (auto _ : state) {
    conv.forward(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(conv.forward_flops(in.shape())) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvForward)->Arg(1)->Arg(8);

void BM_ConvBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Conv2dConfig cfg{64, 64, 3, 1, 1, true};
  nn::Conv2d conv("bench", cfg, rng);
  Tensor in(Shape{batch, 64, 28, 28});
  in.fill_uniform(rng, -1.0f, 1.0f);
  Tensor out, din;
  conv.forward(in, out);
  Tensor dout(out.shape());
  dout.fill_uniform(rng, -1.0f, 1.0f);
  for (auto _ : state) {
    conv.backward(in, dout, din);
    benchmark::DoNotOptimize(din.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(conv.backward_flops(in.shape())) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvBackward)->Arg(1)->Arg(8);

// One-image forward through a single registered backend. Arguments:
// (backend kind, spatial size); channels fixed at the HEP nets' 128-wide
// 3x3 shape so the backends race on the paper's dominant geometry.
void BM_ConvBackendForward(benchmark::State& state) {
  const auto kind = static_cast<gemm::ConvBackendKind>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  gemm::ConvProblem p;
  p.geom.in_c = 128;
  p.geom.in_h = p.geom.in_w = hw;
  p.geom.kernel_h = p.geom.kernel_w = 3;
  p.geom.stride_h = p.geom.stride_w = 1;
  p.geom.pad_h = p.geom.pad_w = 1;
  p.out_c = 128;
  const gemm::ConvBackend& backend = gemm::backend(kind);
  if (!backend.applicable(p)) {
    state.SkipWithError("backend not applicable");
    return;
  }
  Rng rng(3);
  std::vector<float> image(p.geom.in_c * hw * hw);
  for (auto& v : image) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> weight(p.out_c * p.geom.lowered_rows());
  for (auto& v : weight) v = rng.uniform(-0.5f, 0.5f);
  std::vector<float> out(p.out_c * p.geom.lowered_cols());
  for (auto _ : state) {
    backend.forward(p, image.data(), weight.data(), nullptr, out.data(),
                    /*parallel_ok=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(backend.name());
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(backend.flops(p)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvBackendForward)
    ->Args({0, 14})
    ->Args({1, 14})
    ->Args({3, 14})
    ->Args({0, 28})
    ->Args({1, 28})
    ->Args({3, 28});

// One image through the im2col / col2im lowering, on every lowering
// geometry of the benchmarked nets plus a few edge shapes. range(0) picks
// the geometry; GB/s counts the lowered matrix (written by im2col, read
// by col2im).
struct LoweringCase {
  const char* name;
  std::size_t c, h, w, k, s, p;
};

constexpr LoweringCase kLoweringCases[] = {
    {"hep.conv1 3@64 k3s1p1", 3, 64, 64, 3, 1, 1},
    {"hep.conv2 64@32 k3s1p1", 64, 32, 32, 3, 1, 1},
    {"hep.conv3 64@16 k3s1p1", 64, 16, 16, 3, 1, 1},
    {"hep.conv4 64@8 k3s1p1", 64, 8, 8, 3, 1, 1},
    {"hep.conv5 64@4 k3s1p1", 64, 4, 4, 3, 1, 1},
    {"hybrid.conv5 128@2 k3s1p1", 128, 2, 2, 3, 1, 1},
    {"climate.enc1 16@64 k5s2p2", 16, 64, 64, 5, 2, 2},
    {"climate.enc2 16@32 k5s2p2", 16, 32, 32, 5, 2, 2},
    {"climate.enc3 32@16 k5s2p2", 32, 16, 16, 5, 2, 2},
    {"climate.enc4 48@8 k5s2p2", 48, 8, 8, 5, 2, 2},
    {"climate.enc5 64@4 k5s2p2", 64, 4, 4, 5, 2, 2},
    {"climate.head 80@2 k3s1p1", 80, 2, 2, 3, 1, 1},
    {"climate.dec1 64@4 k6s2p2", 64, 4, 4, 6, 2, 2},
    {"climate.dec2 48@8 k6s2p2", 48, 8, 8, 6, 2, 2},
    {"climate.dec3 32@16 k6s2p2", 32, 16, 16, 6, 2, 2},
    {"climate.dec4 16@32 k6s2p2", 16, 32, 32, 6, 2, 2},
    {"climate.dec5 16@64 k6s2p2", 16, 64, 64, 6, 2, 2},
    {"stride3 8@17x40 k5s3p2", 8, 17, 40, 5, 3, 2},
    {"pad>k 8@9 k3s1p4", 8, 9, 9, 3, 1, 4},
    {"1x1 64@16 k1s1p0", 64, 16, 16, 1, 1, 0},
};

gemm::ConvGeom lowering_geom(const LoweringCase& lc) {
  gemm::ConvGeom g;
  g.in_c = lc.c;
  g.in_h = lc.h;
  g.in_w = lc.w;
  g.kernel_h = g.kernel_w = lc.k;
  g.stride_h = g.stride_w = lc.s;
  g.pad_h = g.pad_w = lc.p;
  return g;
}

void BM_Im2col(benchmark::State& state) {
  const LoweringCase& lc = kLoweringCases[state.range(0)];
  const gemm::ConvGeom g = lowering_geom(lc);
  Rng rng(4);
  std::vector<float> image(g.in_c * g.in_h * g.in_w);
  for (auto& v : image) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> col(g.lowered_rows() * g.lowered_cols());
  for (auto _ : state) {
    gemm::im2col(g, image.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetLabel(lc.name);
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(col.size() * sizeof(float)) * state.iterations() /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Im2col)->DenseRange(0, std::size(kLoweringCases) - 1);

void BM_Col2im(benchmark::State& state) {
  const LoweringCase& lc = kLoweringCases[state.range(0)];
  const gemm::ConvGeom g = lowering_geom(lc);
  Rng rng(5);
  std::vector<float> col(g.lowered_rows() * g.lowered_cols());
  for (auto& v : col) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> image(g.in_c * g.in_h * g.in_w, 0.0f);
  for (auto _ : state) {
    gemm::col2im(g, col.data(), image.data());
    benchmark::DoNotOptimize(image.data());
  }
  state.SetLabel(lc.name);
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(col.size() * sizeof(float)) * state.iterations() /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Col2im)->DenseRange(0, std::size(kLoweringCases) - 1);

void BM_AllReduceRing(benchmark::State& state) {
  const auto kib = static_cast<std::size_t>(state.range(0));
  const std::size_t n = kib * 1024 / sizeof(float);
  for (auto _ : state) {
    comm::Cluster cluster(4);
    cluster.run([&](comm::Communicator& c) {
      std::vector<float> data(n, 1.0f);
      c.allreduce_sum(data, comm::AllReduceAlgo::kRing);
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_AllReduceRing)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
