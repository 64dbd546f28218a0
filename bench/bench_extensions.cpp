// Extension benches for the paper's §VIII/§IX directions, implemented in
// this repo beyond the core reproduction:
//   1. ResNet and LSTM throughput (§IX: "extend to other kinds of models
//      such as ResNets and LSTM") with the same FLOP accounting as the
//      paper networks;
//   2. the batch-normalization scale-out tax — the design rule of §I
//      ("not use layers with large dense weights such as batch
//      normalization") made measurable;
//   3. gradient compression for PS traffic (§VIII-A quantization / §VIII-B
//      "high-order bits of weight updates"): wire bytes and fidelity per
//      codec, top-k with and without error feedback;
//   4. dragonfly placement (Fig 3): ideal vs linear vs random placement
//      latency on the machine model;
//   5. YellowFin-style momentum tuning ([48]) driving SGD on a real
//      training loss.
#include <cmath>
#include <cstdio>

#include "common/timer.hpp"
#include "gemm/gemm.hpp"
#include "gemm/winograd.hpp"
#include "data/hep_generator.hpp"
#include "data/loader.hpp"
#include "hybrid/trainable.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/losses.hpp"
#include "nn/residual.hpp"
#include "perf/report.hpp"
#include "ps/compression.hpp"
#include "ps/sparsify.hpp"
#include "rnn/lstm.hpp"
#include "simnet/topology.hpp"
#include "solver/solver.hpp"
#include "tune/yellowfin.hpp"

using namespace pf15;

namespace {

double time_fwd_bwd(nn::Sequential& net, const Tensor& input, int reps) {
  Tensor dout(net.output_shape(input.shape()));
  Rng rng(1);
  dout.fill_uniform(rng, -1.0f, 1.0f);
  net.forward(input, false);
  net.backward(input, dout, false);  // warmup
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    net.zero_grad();
    WallTimer t;
    net.forward(input, false);
    net.backward(input, dout, false);
    best = std::min(best, t.seconds());
  }
  return best;
}

void extension_model_throughput() {
  perf::Table table({"model", "params", "fwd+bwd GFLOP", "time[ms]",
                     "GFLOP/s"});
  const std::size_t batch = 8;

  {
    nn::ResNetConfig cfg;
    cfg.in_channels = 3;
    cfg.stage_channels = {16, 32, 64};
    cfg.blocks_per_stage = 2;
    nn::Sequential net = nn::build_resnet(cfg);
    Rng rng(2);
    Tensor input(Shape{batch, 3, 32, 32});
    input.fill_uniform(rng, 0.0f, 1.0f);
    const double flops = static_cast<double>(
        net.forward_flops(input.shape()) +
        net.backward_flops(input.shape()));
    const double secs = time_fwd_bwd(net, input, 3);
    table.add_row({"ResNet-14 (32x32x3)", std::to_string(net.param_count()),
                   perf::Table::num(flops / 1e9, 2),
                   perf::Table::num(secs * 1e3, 1),
                   perf::Table::num(flops / secs / 1e9, 1)});
  }
  {
    nn::Sequential net;
    Rng rng(3);
    net.add(std::make_unique<rnn::Lstm>(
        "lstm", rnn::LstmConfig{.input_size = 64, .hidden_size = 128}, rng));
    net.add(std::make_unique<rnn::LastStep>("last"));
    net.add(std::make_unique<nn::Dense>("fc", 128, 2, rng));
    Tensor input(Shape{batch, 32, 64});
    input.fill_uniform(rng, -1.0f, 1.0f);
    const double flops = static_cast<double>(
        net.forward_flops(input.shape()) +
        net.backward_flops(input.shape()));
    const double secs = time_fwd_bwd(net, input, 3);
    table.add_row({"LSTM-128 (T=32, D=64)",
                   std::to_string(net.param_count()),
                   perf::Table::num(flops / 1e9, 2),
                   perf::Table::num(secs * 1e3, 1),
                   perf::Table::num(flops / secs / 1e9, 1)});
  }
  std::printf("Extension 1 — §IX model families on the pf15 stack\n%s\n",
              table.str().c_str());
}

void extension_bn_tax() {
  // Identical ResNets with and without BatchNorm: parameter volume (the
  // per-layer PS traffic), per-iteration compute, and the count of extra
  // collectives a data-parallel implementation would add (one mean+var
  // exchange per BN layer per iteration).
  perf::Table table({"variant", "params", "PS traffic/iter [KiB]",
                     "time[ms]", "extra collectives/iter"});
  for (bool bn : {false, true}) {
    nn::ResNetConfig cfg;
    cfg.in_channels = 3;
    cfg.stage_channels = {16, 32};
    cfg.blocks_per_stage = 2;
    cfg.batchnorm = bn;
    nn::Sequential net = nn::build_resnet(cfg);
    Rng rng(4);
    Tensor input(Shape{8, 3, 32, 32});
    input.fill_uniform(rng, 0.0f, 1.0f);
    const double secs = time_fwd_bwd(net, input, 3);
    std::size_t bn_layers = 0;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      if (net.layer(i).kind() == "res") bn_layers += bn ? 2 : 0;
    }
    table.add_row(
        {bn ? "ResNet + BatchNorm" : "ResNet (paper rule: no BN)",
         std::to_string(net.param_count()),
         perf::Table::num(static_cast<double>(net.param_bytes()) / 1024.0,
                          1),
         perf::Table::num(secs * 1e3, 1),
         std::to_string(2 * bn_layers)});
  }
  std::printf(
      "Extension 2 — the batch-norm scale-out tax (§I design rule)\n%s\n",
      table.str().c_str());
}

void extension_compression() {
  // Encode a realistic gradient (HEP conv1 shape) under every codec.
  Rng rng(5);
  const std::size_t n = 128 * 3 * 3 * 3;
  std::vector<float> grad(n);
  for (auto& v : grad) v = static_cast<float>(rng.normal(0.0, 0.02));

  perf::Table table({"codec", "wire bytes", "ratio", "rel L2 error"});
  auto l2err = [&](const std::vector<float>& approx) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += (approx[i] - grad[i]) * (approx[i] - grad[i]);
      den += static_cast<double>(grad[i]) * grad[i];
    }
    return std::sqrt(num / den);
  };
  for (auto codec : {ps::Codec::kFp32, ps::Codec::kFp16, ps::Codec::kInt8,
                     ps::Codec::kInt8Stochastic}) {
    Rng codec_rng(6);
    const auto payload = ps::encode(codec, grad, codec_rng);
    const auto decoded = ps::decode(codec, payload, n);
    const char* name = codec == ps::Codec::kFp32 ? "fp32 (baseline)"
                       : codec == ps::Codec::kFp16 ? "fp16"
                       : codec == ps::Codec::kInt8 ? "int8 nearest"
                                                   : "int8 stochastic";
    table.add_row({name, std::to_string(payload.size()),
                   perf::Table::num(static_cast<double>(n * 4) /
                                        payload.size(),
                                    1) +
                       "x",
                   perf::Table::num(l2err(decoded), 4)});
  }
  for (std::size_t permille : {100, 10}) {
    const std::size_t k = n * permille / 1000;
    const auto sparse = ps::topk_select(grad, k);
    const auto dense = ps::topk_densify(sparse, n);
    table.add_row({"top-k " + std::to_string(permille / 10) + "%",
                   std::to_string(sparse.wire_bytes()),
                   perf::Table::num(static_cast<double>(n * 4) /
                                        sparse.wire_bytes(),
                                    1) +
                       "x",
                   perf::Table::num(l2err(dense), 4)});
  }
  std::printf(
      "Extension 3 — gradient compression for PS traffic (§VIII)\n%s\n",
      table.str().c_str());
}

void extension_placement() {
  simnet::DragonflyConfig machine_cfg;  // Cori-scale defaults
  simnet::Dragonfly machine(machine_cfg);
  const simnet::HopCosts costs;
  const int groups = 8, workers = 150, ps = 8;

  perf::Table table({"placement", "group latency[us]", "root-PS[us]",
                     "groups contained"});
  struct Row {
    const char* name;
    simnet::PlacementPolicy policy;
  };
  for (const Row& row :
       {Row{"ideal (Fig 3)", simnet::PlacementPolicy::kIdeal},
        Row{"linear (scheduler default)", simnet::PlacementPolicy::kLinear},
        Row{"random (fragmented)", simnet::PlacementPolicy::kRandom}}) {
    const auto p =
        simnet::place_job(machine, groups, workers, ps, row.policy, 17);
    double lat = 0.0;
    for (int g = 0; g < groups; ++g) {
      lat += simnet::mean_group_latency(machine, p, g, workers, costs);
    }
    table.add_row(
        {row.name, perf::Table::num(lat / groups * 1e6, 3),
         perf::Table::num(
             simnet::mean_root_ps_latency(machine, p, workers, costs) * 1e6,
             3),
         perf::Table::num(
             100.0 * simnet::containment_fraction(machine, p, workers), 0) +
             "%"});
  }
  std::printf(
      "Extension 4 — dragonfly placement (Fig 3), %d groups x %d nodes + "
      "%d PS\n%s\n",
      groups, workers, ps, table.str().c_str());
}

void extension_yellowfin() {
  // Train the tiny HEP net with (a) hand-tuned SGD and (b) SGD driven by
  // the YellowFin estimators, reporting the loss trajectory.
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 32;

  auto train = [&](bool tuned) {
    hybrid::HepTrainable model(nn::HepConfig::tiny());
    std::size_t dim = 0;
    for (auto& p : model.params()) dim += p.value->numel();
    tune::YellowFinOptions opt;
    opt.beta = 0.99;
    opt.learning_rate_init = 1e-3;
    opt.warmup_steps = 5;
    tune::YellowFin yf(dim, opt);
    solver::SgdSolver sgd(model.params(), 1e-3, 0.9);
    data::HepGenerator gen(gen_cfg, 0);

    std::vector<float> flat(dim);
    double loss_sum = 0.0;
    const int iters = 60;
    for (int i = 0; i < iters; ++i) {
      std::vector<data::Sample> ss;
      std::vector<const data::Sample*> ptrs;
      for (int k = 0; k < 8; ++k) {
        const auto ev = gen.generate(k % 2 == 0);
        ss.push_back({ev.image.clone(), ev.label, true, {}});
      }
      for (const auto& s : ss) ptrs.push_back(&s);
      const double loss = model.train_step(data::make_batch(ptrs));
      if (tuned) {
        std::size_t off = 0;
        for (auto& p : model.params()) {
          const float* g = p.grad->data();
          std::copy(g, g + p.grad->numel(), flat.begin() + off);
          off += p.grad->numel();
        }
        yf.observe(flat);
        sgd.set_learning_rate(yf.learning_rate());
        sgd.set_momentum(yf.momentum());
      }
      sgd.step();
      if (i >= iters - 20) loss_sum += loss;  // tail mean
    }
    return loss_sum / 20.0;
  };

  perf::Table table({"configuration", "tail loss (last 20 iters)"});
  table.add_row({"SGD lr=1e-3, mu=0.9 (hand pick)",
                 perf::Table::num(train(false), 4)});
  table.add_row({"SGD driven by YellowFin ([48])",
                 perf::Table::num(train(true), 4)});
  std::printf(
      "Extension 5 — principled momentum tuning (§VIII-B)\n%s\n",
      table.str().c_str());
}

void extension_conv_algorithms() {
  // §VIII-A names Winograd and FFT as the evolving kernel algorithms.
  // Arithmetic cost per conv (one 56x56 image, 64->64 channels) as the
  // kernel grows: direct cost scales with K², Winograd cuts 3x3 by
  // 2.25x. FFT pays only for kernels far larger than the paper's 3x3,
  // 5x5 and 6x6 (Vasilache et al., ICLR'15), so pf15 does not carry it.
  perf::Table table({"kernel", "direct GFLOP", "winograd GFLOP",
                     "cheapest"});
  const std::size_t c = 64, hw = 56;
  for (std::size_t k : {3u, 5u, 9u, 15u, 25u}) {
    const std::size_t pad = k / 2;
    const std::size_t out = hw;  // same-padded
    const double direct =
        static_cast<double>(gemm::flops(c, out * out, c * k * k));
    const double wino =
        k == 3 ? static_cast<double>(gemm::winograd_flops(c, c, hw, hw, pad))
               : -1.0;
    const char* who = wino >= 0 && wino < direct ? "winograd" : "direct";
    table.add_row({std::to_string(k) + "x" + std::to_string(k),
                   perf::Table::num(direct / 1e9, 2),
                   wino < 0 ? "-" : perf::Table::num(wino / 1e9, 2), who});
  }
  std::printf(
      "Extension 6 — conv algorithm crossover (§VIII-A: Winograd)\n%s\n",
      table.str().c_str());
}

}  // namespace

int main() {
  extension_model_throughput();
  extension_bn_tax();
  extension_compression();
  extension_placement();
  extension_yellowfin();
  extension_conv_algorithms();
  return 0;
}
