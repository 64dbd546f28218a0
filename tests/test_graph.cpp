// Graph compiler subsystem: DAG capture fidelity (chains, residual
// split/add sub-graphs, the climate fan-out split), the optimization
// passes (dropout strip, BatchNorm fold, activation fusion — including
// inside residual branches and into add joins), the level-based liveness
// arena planner's no-overlap invariant on diamond topologies,
// compiled-vs-eager output equivalence for the HEP, ResNet and climate
// networks under both the serial and the level-scheduled parallel
// executor, and the born-warm pre-tuning contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "check_failure.hpp"
#include "common/rng.hpp"
#include "common/task_scheduler.hpp"
#include "gemm/conv_backend.hpp"
#include "graph/arena.hpp"
#include "graph/compiled_plan.hpp"
#include "graph/graph.hpp"
#include "graph/passes.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/climate_net.hpp"
#include "nn/conv2d.hpp"
#include "nn/deconv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/hep_model.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace pf15 {
namespace {

/// max |a - b| / (1 + |b|): relative on large values, absolute near zero.
double max_rel_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = std::abs(static_cast<double>(a.at(i)) - b.at(i)) /
                     (1.0 + std::abs(static_cast<double>(b.at(i))));
    worst = std::max(worst, d);
  }
  return worst;
}

Tensor random_input(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

nn::Conv2dConfig conv_cfg(std::size_t in_c, std::size_t out_c,
                          std::size_t kernel, std::size_t stride,
                          std::size_t pad, bool bias = true) {
  nn::Conv2dConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  cfg.kernel = kernel;
  cfg.stride = stride;
  cfg.pad = pad;
  cfg.bias = bias;
  return cfg;
}

/// The planner's safety contract, recomputed from first principles: two
/// arena buffers whose level intervals overlap (value live from its def
/// level through its last consumer's level, resolved through splits;
/// outputs live past the end) must occupy disjoint byte ranges. Level
/// granularity is what the parallel executor requires — same-level nodes
/// write concurrently.
void expect_no_overlap(const graph::Graph& g,
                       const graph::ArenaAssignment& plan) {
  const std::size_t n = g.nodes.size();
  const std::vector<int> level = g.levels();
  int max_level = 0;
  for (int l : level) max_level = std::max(max_level, l);
  const int past_end = max_level + 1;
  std::vector<int> last(n, 0);
  for (std::size_t i = 0; i < n; ++i) last[i] = level[i];
  for (std::size_t i = 0; i < n; ++i) {
    if (g.nodes[i].kind == graph::OpKind::kSplit) continue;
    for (int in : g.nodes[i].inputs) {
      const int src = g.resolve_alias(in);
      if (src >= 0) {
        last[static_cast<std::size_t>(src)] =
            std::max(last[static_cast<std::size_t>(src)], level[i]);
      }
    }
  }
  for (int out : g.outputs) {
    const int src = g.resolve_alias(out);
    if (src >= 0) last[static_cast<std::size_t>(src)] = past_end;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (plan.external[i] || g.nodes[i].kind == graph::OpKind::kSplit) {
      continue;
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      if (plan.external[j] || g.nodes[j].kind == graph::OpKind::kSplit) {
        continue;
      }
      if (last[i] < level[j] || last[j] < level[i]) continue;  // disjoint
      const std::size_t ai = plan.offsets[i];
      const std::size_t bi = ai + g.nodes[i].out_sample.numel();
      const std::size_t aj = plan.offsets[j];
      const std::size_t bj = aj + g.nodes[j].out_sample.numel();
      EXPECT_TRUE(bi <= aj || bj <= ai)
          << "nodes " << i << " (" << g.nodes[i].name << ") and " << j
          << " (" << g.nodes[j].name << ") overlap";
    }
  }
}

std::size_t count_kind(const graph::Graph& g, graph::OpKind kind) {
  std::size_t n = 0;
  for (const auto& node : g.nodes) {
    if (node.kind == kind) ++n;
  }
  return n;
}

// ---- capture ---------------------------------------------------------------

TEST(GraphCapture, HepChainCapturesKindsAndShapes) {
  nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
  net.set_training(false);
  const graph::Graph g = graph::capture(net, Shape{3, 32, 32});
  // tiny(): 3 x [conv relu pool/gap] + fc = 10 nodes, one output.
  ASSERT_EQ(g.nodes.size(), 10u);
  EXPECT_EQ(g.nodes[0].kind, graph::OpKind::kConv);
  EXPECT_EQ(g.nodes[1].kind, graph::OpKind::kRelu);
  EXPECT_EQ(g.nodes[2].kind, graph::OpKind::kMaxPool);
  EXPECT_EQ(g.nodes[8].kind, graph::OpKind::kGlobalPool);
  EXPECT_EQ(g.nodes[9].kind, graph::OpKind::kDense);
  ASSERT_EQ(g.outputs.size(), 1u);
  EXPECT_EQ(g.outputs[0], 9);
  // Chain wiring and per-sample shapes.
  ASSERT_EQ(g.nodes[0].inputs.size(), 1u);
  EXPECT_EQ(g.nodes[0].input0(), graph::OpNode::kGraphInput);
  for (std::size_t i = 1; i < g.nodes.size(); ++i) {
    ASSERT_EQ(g.nodes[i].inputs.size(), 1u);
    EXPECT_EQ(g.nodes[i].input0(), static_cast<int>(i - 1));
    EXPECT_EQ(g.nodes[i].in_sample, g.nodes[i - 1].out_sample);
    EXPECT_FALSE(g.nodes[i].in_residual);
  }
  EXPECT_EQ(g.nodes[9].out_sample, (Shape{2}));
  // A pure chain levels as its index order.
  const std::vector<int> level = g.levels();
  for (std::size_t i = 0; i < level.size(); ++i) {
    EXPECT_EQ(level[i], static_cast<int>(i));
  }
  // Captured weights are copies, not aliases.
  auto* conv = dynamic_cast<nn::Conv2d*>(&net.layer(0));
  ASSERT_NE(conv, nullptr);
  EXPECT_NE(g.nodes[0].weight.data(), conv->weight().data());
}

TEST(GraphCapture, ResidualLowersToSplitAddSubGraph) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.stage_channels = {4, 8};
  cfg.blocks_per_stage = 1;
  cfg.batchnorm = true;
  nn::Sequential net = nn::build_resnet(cfg);
  net.set_training(false);
  const graph::Graph g = graph::capture(net, Shape{3, 16, 16});

  // No opaque nodes: both blocks lowered into real sub-graphs.
  EXPECT_EQ(count_kind(g, graph::OpKind::kOpaque), 0u);
  EXPECT_EQ(count_kind(g, graph::OpKind::kSplit), 2u);
  EXPECT_EQ(count_kind(g, graph::OpKind::kAdd), 2u);
  EXPECT_EQ(count_kind(g, graph::OpKind::kBatchNorm), 4u);

  // Block 1 (4 -> 4, stride 1): identity shortcut — the add consumes the
  // branch tail and, through the split alias, the block input itself.
  // Layout after stem conv+relu (nodes 0, 1):
  //   2 split, 3 conv1, 4 bn1, 5 relu1, 6 conv2, 7 bn2, 8 add, 9 relu
  EXPECT_EQ(g.nodes[2].kind, graph::OpKind::kSplit);
  EXPECT_EQ(g.nodes[2].input0(), 1);
  EXPECT_EQ(g.nodes[3].kind, graph::OpKind::kConv);
  EXPECT_EQ(g.nodes[3].input0(), 2);
  EXPECT_EQ(g.nodes[8].kind, graph::OpKind::kAdd);
  ASSERT_EQ(g.nodes[8].inputs.size(), 2u);
  EXPECT_EQ(g.nodes[8].inputs[0], 7);  // branch tail (bn2)
  EXPECT_EQ(g.nodes[8].inputs[1], 2);  // shortcut = the split alias
  EXPECT_EQ(g.resolve_alias(g.nodes[8].inputs[1]), 1);
  for (std::size_t i = 2; i <= 9; ++i) {
    EXPECT_TRUE(g.nodes[i].in_residual) << "node " << i;
  }
  EXPECT_FALSE(g.nodes[0].in_residual);

  // Block 2 (4 -> 8, stride 2): projection shortcut hangs off the split.
  // Nodes: 10 split, 11..15 branch, 16 proj, 17 add, 18 relu.
  EXPECT_EQ(g.nodes[10].kind, graph::OpKind::kSplit);
  EXPECT_EQ(g.nodes[16].kind, graph::OpKind::kConv);
  EXPECT_EQ(g.nodes[16].input0(), 10);
  EXPECT_EQ(g.nodes[16].problem.geom.kernel_h, 1u);  // the 1x1 projection
  EXPECT_EQ(g.nodes[17].kind, graph::OpKind::kAdd);
  EXPECT_EQ(g.nodes[17].inputs[1], 16);

  // The branch first conv and the projection are independent: same level.
  const std::vector<int> level = g.levels();
  EXPECT_EQ(level[11], level[16]);
  EXPECT_EQ(level[10], level[9]);  // a split takes its producer's level
}

TEST(GraphCapture, ClimateFanOutGoesThroughExplicitSplit) {
  nn::ClimateNet net(nn::ClimateConfig::tiny());
  net.set_training(false);
  const graph::Graph g = graph::capture(net);
  ASSERT_EQ(g.outputs.size(), 5u);
  // Exactly one split, fed by the encoder tail, consumed by the four
  // heads and the decoder.
  std::size_t splits = 0;
  int split_id = -1;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].kind == graph::OpKind::kSplit) {
      ++splits;
      split_id = static_cast<int>(i);
    }
  }
  EXPECT_EQ(splits, 1u);
  ASSERT_GE(split_id, 0);
  EXPECT_EQ(g.consumer_count(split_id), 5u);
  // All five consumers sit at the same level — the fan-out the parallel
  // executor exploits.
  const std::vector<int> level = g.levels();
  int fan_level = -1;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    for (int in : g.nodes[i].inputs) {
      if (in == split_id) {
        if (fan_level < 0) fan_level = level[i];
        EXPECT_EQ(level[i], fan_level);
      }
    }
  }
}

TEST(GraphCapture, RefusesTrainingModeNets) {
  nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
  EXPECT_TRUE(net.training());  // construction default
  EXPECT_THROW(graph::capture(net, Shape{3, 32, 32}), ConfigError);
  EXPECT_THROW(
      graph::compile(net, Shape{3, 32, 32}, graph::CompileOptions{}),
      ConfigError);

  nn::ClimateNet climate(nn::ClimateConfig::tiny());
  EXPECT_THROW(graph::capture(climate), ConfigError);
  // Partially-training nets (a part accessor flipped one Sequential back)
  // must be refused too — folding would freeze stale statistics.
  climate.set_training(false);
  climate.decoder().set_training(true);
  EXPECT_TRUE(climate.training());
  EXPECT_THROW(graph::capture(climate), ConfigError);
  // A net put back in training mode after an eval phase is refused too —
  // folding its BatchNorm mid-training would freeze stale statistics.
  net.set_training(false);
  net.set_training(true);
  EXPECT_THROW(graph::capture(net, Shape{3, 32, 32}), ConfigError);
}

TEST(GraphCapture, TrainingModeErrorNamesOffendingLayer) {
  Rng rng(11);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>("c", conv_cfg(2, 4, 3, 1, 1), rng));
  net.add(std::make_unique<nn::Dropout>("drop", 0.5f));
  net.add(std::make_unique<nn::ReLU>("r"));
  ASSERT_TRUE(net.training());
  // The refusal must point at the layer that still runs training
  // behaviour — index and name — not just say "the network".
  PF15_EXPECT_CHECK_FAIL(graph::capture(net, Shape{2, 8, 8}),
                         "layer 1 'drop'");
  PF15_EXPECT_CHECK_FAIL(graph::capture(net, Shape{2, 8, 8}),
                         "training mode");

  // Residual blocks report through their children: a BatchNorm inside a
  // block names the block layer.
  nn::ResNetConfig rcfg;
  rcfg.in_channels = 3;
  rcfg.stage_channels = {4};
  rcfg.blocks_per_stage = 1;
  rcfg.batchnorm = true;
  nn::Sequential resnet = nn::build_resnet(rcfg);
  PF15_EXPECT_CHECK_FAIL(graph::capture(resnet, Shape{3, 8, 8}),
                         "layer 2 'res1_1'");
}

// ---- passes ----------------------------------------------------------------

TEST(GraphPasses, StripsDropoutAndRewiresConsumers) {
  Rng rng(7);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>("c", conv_cfg(2, 4, 3, 1, 1), rng));
  net.add(std::make_unique<nn::Dropout>("drop", 0.5f));
  net.add(std::make_unique<nn::ReLU>("r"));
  net.set_training(false);
  graph::Graph g = graph::capture(net, Shape{2, 8, 8});
  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_EQ(graph::strip_noops(g), 1u);
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(g.nodes[0].kind, graph::OpKind::kConv);
  EXPECT_EQ(g.nodes[1].kind, graph::OpKind::kRelu);
  EXPECT_EQ(g.nodes[1].input0(), 0);
  EXPECT_EQ(g.outputs[0], 1);
}

TEST(GraphPasses, FusesActivationsIntoProducerEpilogue) {
  Rng rng(7);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>("c", conv_cfg(2, 4, 3, 1, 1), rng));
  net.add(std::make_unique<nn::ReLU>("r"));
  net.add(std::make_unique<nn::Dense>("fc", 4 * 8 * 8, 3, rng));
  net.add(std::make_unique<nn::Sigmoid>("s"));
  net.set_training(false);
  graph::Graph g = graph::capture(net, Shape{2, 8, 8});
  EXPECT_EQ(graph::fuse_activations(g), 2u);
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(g.nodes[0].epilogue, graph::Epilogue::kRelu);
  EXPECT_EQ(g.nodes[1].epilogue, graph::Epilogue::kSigmoid);
  EXPECT_EQ(g.outputs[0], 1);
}

/// Builds conv (+optional bias) -> BN -> ReLU, runs some training batches
/// so the BN running statistics move away from their (0, 1) init, then
/// freezes to eval mode.
nn::Sequential bn_net(bool conv_bias, std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>(
      "c", conv_cfg(2, 4, 3, 1, 1, conv_bias), rng));
  nn::BatchNormConfig bn;
  bn.channels = 4;
  net.add(std::make_unique<nn::BatchNorm2d>("bn", bn));
  net.add(std::make_unique<nn::ReLU>("r"));
  net.set_training(true);
  for (int i = 0; i < 3; ++i) {
    net.forward(random_input(Shape{6, 2, 8, 8}, seed + 10 + i));
  }
  net.set_training(false);
  return net;
}

TEST(GraphPasses, FoldsBatchNormIntoConvWeights) {
  for (const bool conv_bias : {true, false}) {
    nn::Sequential net = bn_net(conv_bias, 0x60d);
    graph::Graph g = graph::capture(net, Shape{2, 8, 8});
    ASSERT_EQ(g.nodes.size(), 3u);
    EXPECT_EQ(graph::fold_batchnorm(g), 1u);
    ASSERT_EQ(g.nodes.size(), 2u);
    EXPECT_EQ(g.nodes[0].kind, graph::OpKind::kConv);
    // Folding materialises a bias even when the conv had none.
    EXPECT_TRUE(g.nodes[0].bias.defined());
    EXPECT_EQ(g.nodes[1].kind, graph::OpKind::kRelu);

    // The folded conv must reproduce eager conv+BN inference math.
    const Tensor input = random_input(Shape{4, 2, 8, 8}, 0xf01d);
    const Tensor& want = net.forward(input);
    graph::CompiledPlan plan =
        graph::compile(net, Shape{2, 8, 8}, graph::CompileOptions{});
    EXPECT_EQ(plan.report().passes.folded_batchnorms, 1u);
    EXPECT_EQ(plan.report().passes.fused_activations, 1u);
    const Tensor& got = plan.run(input);
    EXPECT_LE(max_rel_diff(got, want), 1e-4)
        << "conv_bias=" << conv_bias;
  }
}

/// A ResNet with BatchNorm inside every block, statistics moved off their
/// init by a few training batches, frozen to eval.
nn::Sequential trained_resnet(const nn::ResNetConfig& cfg,
                              const Shape& sample, std::uint64_t seed) {
  nn::Sequential net = nn::build_resnet(cfg);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(random_input(with_batch(sample, 4), seed + i));
  }
  net.set_training(false);
  return net;
}

TEST(GraphPasses, FoldsAndFusesInsideResidualBlocks) {
  // BatchNorm lives *inside* the residual blocks. With the blocks lowered
  // to real sub-graphs the folds and fusions must fire in the branches —
  // the exact optimizations the opaque capture used to forfeit — and the
  // trailing ReLU must fuse into the add join.
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.stage_channels = {4, 8};
  cfg.blocks_per_stage = 1;
  cfg.batchnorm = true;
  nn::Sequential net = trained_resnet(cfg, Shape{3, 16, 16}, 0xbe5);

  const Tensor input = random_input(Shape{3, 3, 16, 16}, 0x5eed);
  const Tensor& want = net.forward(input);
  graph::CompiledPlan plan =
      graph::compile(net, Shape{3, 16, 16}, graph::CompileOptions{});
  const graph::PassStats& passes = plan.report().passes;
  EXPECT_EQ(passes.folded_batchnorms, 4u);  // bn1 + bn2 in both blocks
  EXPECT_EQ(passes.residual_folded_batchnorms, 4u);
  // relu1 into conv1 and the trailing ReLU into the add, per block.
  EXPECT_EQ(passes.residual_fused_activations, 4u);
  EXPECT_EQ(passes.fused_joins, 2u);
  // The joins carry the fused ReLU.
  std::size_t fused_adds = 0;
  for (const auto& node : plan.graph().nodes) {
    if (node.kind == graph::OpKind::kAdd &&
        node.epilogue == graph::Epilogue::kRelu) {
      ++fused_adds;
    }
  }
  EXPECT_EQ(fused_adds, 2u);
  const Tensor& got = plan.run(input);
  EXPECT_LE(max_rel_diff(got, want), 1e-4);
}

TEST(GraphPasses, FusionNeverCrossesAFanOutPoint) {
  // The split marks the residual branch point: the producer feeding a
  // split has >1 effective consumers, so its trailing activation (the
  // stem ReLU here, consumed by the first block) may still fuse — but a
  // BatchNorm *before* the split must not fold into a producer whose
  // value the shortcut also reads. Construct that directly: the stem BN
  // feeds the first block's split.
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.stage_channels = {4};
  cfg.blocks_per_stage = 1;
  cfg.batchnorm = true;
  nn::Sequential net = trained_resnet(cfg, Shape{3, 8, 8}, 0xfa00);
  graph::Graph g = graph::capture(net, Shape{3, 8, 8});
  // Identity-shortcut block: the add reads the split alias, so the value
  // entering the block is multiply-consumed and nothing fuses *across*
  // the split; the in-branch folds still fire.
  graph::PassStats stats;
  stats.folded_batchnorms = graph::fold_batchnorm(g, &stats);
  stats.fused_activations = graph::fuse_activations(g, &stats);
  EXPECT_EQ(stats.residual_folded_batchnorms, 2u);
  for (const auto& node : g.nodes) {
    if (node.kind == graph::OpKind::kSplit) {
      EXPECT_EQ(node.epilogue, graph::Epilogue::kNone);
    }
  }
}

// ---- arena planner ---------------------------------------------------------

TEST(ArenaPlanner, BuffersWithOverlappingLifetimesNeverCollide) {
  nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
  net.set_training(false);
  graph::Graph g = graph::capture(net, Shape{3, 32, 32});
  graph::optimize(g);
  const graph::ArenaAssignment plan = graph::plan_arena(g);
  // The unconsumed final output is produced straight into the result
  // tensor, outside the arena.
  EXPECT_TRUE(plan.external[static_cast<std::size_t>(g.outputs[0])]);
  expect_no_overlap(g, plan);
  // Reuse must beat eager's keep-everything allocation.
  EXPECT_LT(plan.total_floats, plan.eager_floats);
  EXPECT_GT(plan.total_floats, 0u);
}

/// Hand-built diamond: input -> A -> split -> (B, C) -> add -> output.
/// Shape-preserving elementwise kinds keep the arithmetic predictable.
graph::Graph diamond_graph(const Shape& sample) {
  graph::Graph g;
  g.input_sample = sample;
  auto make = [&](graph::OpKind kind, const char* name,
                  std::vector<int> inputs) {
    graph::OpNode node;
    node.kind = kind;
    node.name = name;
    node.inputs = std::move(inputs);
    node.in_sample = node.out_sample = sample;
    g.nodes.push_back(std::move(node));
    return static_cast<int>(g.nodes.size() - 1);
  };
  const int a = make(graph::OpKind::kRelu, "A", {graph::OpNode::kGraphInput});
  const int split = make(graph::OpKind::kSplit, "split", {a});
  const int b = make(graph::OpKind::kRelu, "B", {split});
  const int c = make(graph::OpKind::kSigmoid, "C", {split});
  const int join = make(graph::OpKind::kAdd, "join", {b, c});
  g.outputs.push_back(join);
  return g;
}

TEST(ArenaPlanner, DiamondTopologyKeepsBothBranchesAndTheirSourceAlive) {
  const Shape sample{4, 8, 8};
  graph::Graph g = diamond_graph(sample);
  const graph::ArenaAssignment plan = graph::plan_arena(g);
  expect_no_overlap(g, plan);
  // A is consumed by both branches (through the split), so it must stay
  // disjoint from B and C; B and C share a level (they run concurrently)
  // so they must be disjoint from each other. Three live buffers of one
  // sample each, while eager would keep four (the split owns none).
  EXPECT_EQ(plan.eager_floats, 4 * sample.numel());
  EXPECT_GE(plan.total_floats, 3 * sample.numel());
  const std::size_t n = sample.numel();
  // Explicit pairwise disjointness of A, B, C.
  for (const auto [x, y] : {std::pair<int, int>{0, 2},
                            std::pair<int, int>{0, 3},
                            std::pair<int, int>{2, 3}}) {
    const std::size_t ox = plan.offsets[static_cast<std::size_t>(x)];
    const std::size_t oy = plan.offsets[static_cast<std::size_t>(y)];
    EXPECT_TRUE(ox + n <= oy || oy + n <= ox)
        << g.nodes[static_cast<std::size_t>(x)].name << " vs "
        << g.nodes[static_cast<std::size_t>(y)].name;
  }
}

TEST(ArenaPlanner, ValueConsumedByBranchAndJoinDiesAtTheJoin) {
  // input -> A -> split -> B -> add(B, split-alias-of-A) -> out: A's
  // value is read by the branch *and* the join, so its last consumer is
  // the add — the identity-shortcut residual pattern.
  const Shape sample{2, 6, 6};
  graph::Graph g;
  g.input_sample = sample;
  auto make = [&](graph::OpKind kind, const char* name,
                  std::vector<int> inputs) {
    graph::OpNode node;
    node.kind = kind;
    node.name = name;
    node.inputs = std::move(inputs);
    node.in_sample = node.out_sample = sample;
    g.nodes.push_back(std::move(node));
    return static_cast<int>(g.nodes.size() - 1);
  };
  const int a = make(graph::OpKind::kRelu, "A", {graph::OpNode::kGraphInput});
  const int split = make(graph::OpKind::kSplit, "split", {a});
  const int b = make(graph::OpKind::kTanh, "B", {split});
  const int join = make(graph::OpKind::kAdd, "join", {b, split});
  g.outputs.push_back(join);

  const graph::ArenaAssignment plan = graph::plan_arena(g);
  expect_no_overlap(g, plan);
  const std::size_t n = sample.numel();
  const std::size_t oa = plan.offsets[static_cast<std::size_t>(a)];
  const std::size_t ob = plan.offsets[static_cast<std::size_t>(b)];
  EXPECT_TRUE(oa + n <= ob || ob + n <= oa) << "A overlaps B";
  EXPECT_TRUE(plan.external[static_cast<std::size_t>(join)]);

  // Executable semantics: out = tanh(relu(x)) + relu(x), exercised
  // through the compiled executor (split aliasing + two-input join),
  // across batch sizes — the per-sample offsets must scale.
  graph::CompiledPlan plan2(std::move(g), graph::CompileOptions{});
  for (const std::size_t batch : {1u, 3u, 4u}) {
    const Tensor input =
        random_input(with_batch(sample, batch), 0xd1a + batch);
    const Tensor& got = plan2.run(input);
    ASSERT_EQ(got.shape(), with_batch(sample, batch));
    for (std::size_t i = 0; i < got.numel(); ++i) {
      const float r = input.at(i) > 0.0f ? input.at(i) : 0.0f;
      const float want = std::tanh(r) + r;
      ASSERT_NEAR(got.at(i), want, 1e-6f) << "batch " << batch
                                          << " element " << i;
    }
  }
}

TEST(ArenaPlanner, ResidualGraphReusesBranchSlotsAcrossBlocks) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.stage_channels = {8, 8};
  cfg.blocks_per_stage = 2;
  cfg.batchnorm = true;
  nn::Sequential net = trained_resnet(cfg, Shape{3, 16, 16}, 0xa2e);
  graph::Graph g = graph::capture(net, Shape{3, 16, 16});
  graph::optimize(g);
  const graph::ArenaAssignment plan = graph::plan_arena(g);
  expect_no_overlap(g, plan);
  // Four blocks' worth of branch activations all fold into a handful of
  // recycled slots: the arena must stay well under eager's footprint.
  EXPECT_LT(plan.total_floats, plan.eager_floats / 2);
}

// ---- compiled execution ----------------------------------------------------

TEST(CompiledPlan, MatchesEagerHepIncludingRaggedBatches) {
  nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
  net.set_training(false);
  graph::CompiledPlan plan = graph::compile(net, Shape{3, 32, 32});
  EXPECT_EQ(plan.report().passes.fused_activations, 3u);
  EXPECT_LT(plan.report().arena_floats_per_sample,
            plan.report().eager_floats_per_sample);
  // A chain levels one node per step.
  EXPECT_EQ(plan.report().max_level_width, 1u);
  for (const std::size_t batch : {1u, 5u, 8u}) {
    const Tensor input =
        random_input(Shape{batch, 3, 32, 32}, 0x11e9 + batch);
    const Tensor& want = net.forward(input);
    const Tensor& got = plan.run(input);
    EXPECT_LE(max_rel_diff(got, want), 1e-4) << "batch " << batch;
  }
}

TEST(CompiledPlan, MatchesEagerResNetWithSubGraphCapture) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.stage_channels = {4, 8};
  cfg.blocks_per_stage = 2;
  cfg.batchnorm = true;
  nn::Sequential net = trained_resnet(cfg, Shape{3, 16, 16}, 0x9e5);
  graph::CompiledPlan plan = graph::compile(net, Shape{3, 16, 16});
  EXPECT_EQ(plan.report().passes.residual_folded_batchnorms, 8u);
  EXPECT_EQ(plan.report().passes.fused_joins, 4u);
  // Stage-2's first block runs branch conv1 and the projection at the
  // same level: real concurrency in the schedule.
  EXPECT_GE(plan.report().max_level_width, 2u);
  EXPECT_LT(plan.report().arena_floats_per_sample,
            plan.report().eager_floats_per_sample);
  for (const std::size_t batch : {1u, 5u, 8u}) {
    const Tensor input =
        random_input(Shape{batch, 3, 16, 16}, 0x2e5 + batch);
    const Tensor& want = net.forward(input);
    const Tensor& got = plan.run(input);
    EXPECT_LE(max_rel_diff(got, want), 1e-4) << "batch " << batch;
  }
}

TEST(CompiledPlan, MatchesEagerClimateAllFiveOutputs) {
  nn::ClimateNet net(nn::ClimateConfig::tiny());
  net.set_training(false);
  graph::CompiledPlan plan = graph::compile(net);
  // The four heads and the decoder's first deconv share a level.
  EXPECT_GE(plan.report().max_level_width, 5u);
  const Tensor input = random_input(Shape{2, 4, 32, 32}, 0xc11);
  const nn::ClimateNet::Outputs& want = net.forward(input);
  const std::vector<Tensor>& got = plan.run_all(input);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_LE(max_rel_diff(got[0], want.conf), 1e-4);
  EXPECT_LE(max_rel_diff(got[1], want.cls), 1e-4);
  EXPECT_LE(max_rel_diff(got[2], want.xy), 1e-4);
  EXPECT_LE(max_rel_diff(got[3], want.wh), 1e-4);
  EXPECT_LE(max_rel_diff(got[4], want.recon), 1e-4);
  // The feature fan-out (4 heads + decoder) must not break the arena.
  EXPECT_LT(plan.report().arena_floats_per_sample,
            plan.report().eager_floats_per_sample);
}

/// Parallel (node×batch product) vs strictly serial schedule of the
/// same Sequential: outputs must be *bit*-identical — per-level barriers
/// plus per-node arithmetic identical to the serial schedule, regardless
/// of how tasks were stolen.
void expect_parallel_bit_exact(nn::Sequential& net, const Shape& sample,
                               std::uint64_t seed) {
  graph::CompileOptions parallel_opt;
  graph::CompileOptions serial_opt = parallel_opt;
  serial_opt.parallel_levels = false;
  graph::CompiledPlan parallel_plan =
      graph::compile(net, sample, parallel_opt);
  graph::CompiledPlan serial_plan = graph::compile(net, sample, serial_opt);
  const Tensor input = random_input(with_batch(sample, 4), seed);
  const Tensor& par = parallel_plan.run(input);
  const Tensor& ser = serial_plan.run(input);
  ASSERT_EQ(par.shape(), ser.shape());
  for (std::size_t i = 0; i < par.numel(); ++i) {
    ASSERT_EQ(par.at(i), ser.at(i)) << "element " << i;
  }
}

TEST(CompiledPlan, ParallelExecutorMatchesSerialBitExactHep) {
  nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
  net.set_training(false);
  expect_parallel_bit_exact(net, Shape{3, 32, 32}, 0x8e91);
}

TEST(CompiledPlan, ParallelExecutorMatchesSerialBitExactResNet) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.stage_channels = {4, 8};
  cfg.blocks_per_stage = 2;
  cfg.batchnorm = true;
  nn::Sequential net = trained_resnet(cfg, Shape{3, 16, 16}, 0x5eed);
  expect_parallel_bit_exact(net, Shape{3, 16, 16}, 0x8e92);
}

TEST(CompiledPlan, ParallelExecutorMatchesSerialBitExactClimate) {
  // The climate fan-out is the widest level in the repo (4 heads + the
  // decoder share one); run_all under the scheduler must be
  // bit-identical to the serial schedule on every output (same
  // backends: both plans resolve the same plan-cache keys at batch > 1).
  nn::ClimateNet net(nn::ClimateConfig::tiny());
  net.set_training(false);
  graph::CompileOptions parallel_opt;
  graph::CompileOptions serial_opt = parallel_opt;
  serial_opt.parallel_levels = false;
  graph::CompiledPlan parallel_plan = graph::compile(net, parallel_opt);
  graph::CompiledPlan serial_plan = graph::compile(net, serial_opt);
  const Tensor input = random_input(Shape{4, 4, 32, 32}, 0xeca1);
  const std::vector<Tensor>& par = parallel_plan.run_all(input);
  const std::vector<Tensor>& ser = serial_plan.run_all(input);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t k = 0; k < par.size(); ++k) {
    ASSERT_EQ(par[k].shape(), ser[k].shape());
    for (std::size_t i = 0; i < par[k].numel(); ++i) {
      ASSERT_EQ(par[k].at(i), ser[k].at(i))
          << "output " << k << " element " << i;
    }
  }
}

/// Minimal extension layer for the opaque-node scheduling tests:
/// out = k * in, no shared state, so joining a wide level is safe when
/// (and only when) it says so via parallel_ok().
class ScaleLayer final : public nn::Layer {
 public:
  ScaleLayer(std::string name, float k, bool parallel)
      : name_(std::move(name)), k_(k), parallel_(parallel) {}
  const std::string& name() const override { return name_; }
  std::string kind() const override { return "scale_test"; }
  Shape output_shape(const Shape& in) const override { return in; }
  void forward(const Tensor& in, Tensor& out) override {
    nn::ensure_shape(out, in.shape());
    for (std::size_t i = 0; i < in.numel(); ++i) {
      out.data()[i] = k_ * in.data()[i];
    }
  }
  void backward(const Tensor&, const Tensor&, Tensor&) override {
    PF15_CHECK_MSG(false, "inference-only test layer");
  }
  std::uint64_t forward_flops(const Shape& in) const override {
    return in.numel();
  }
  std::uint64_t backward_flops(const Shape&) const override { return 0; }
  bool parallel_ok() const override { return parallel_; }

 private:
  std::string name_;
  float k_;
  bool parallel_;
};

TEST(CompiledPlan, OpaqueLayerJoinsWideLevelOnlyWhenItOptsIn) {
  // Hand-built fan-out: input -> split -> (opaque scale, relu) -> add.
  // The opaque node shares a level with the relu; whether it *schedules*
  // into the wide level is gated on Layer::parallel_ok(), visible in
  // report().wide_level_nodes (2 when it opts in; 0 when it does not,
  // because the relu alone is no longer a wide level). Results must be
  // identical either way.
  const Shape sample{2, 6, 6};
  for (const bool opts_in : {false, true}) {
    ScaleLayer scale("s", 3.0f, opts_in);
    graph::Graph g;
    g.input_sample = sample;
    auto make = [&](graph::OpKind kind, const char* name,
                    std::vector<int> inputs) {
      graph::OpNode node;
      node.kind = kind;
      node.name = name;
      node.inputs = std::move(inputs);
      node.in_sample = node.out_sample = sample;
      g.nodes.push_back(std::move(node));
      return static_cast<int>(g.nodes.size() - 1);
    };
    const int split =
        make(graph::OpKind::kSplit, "split", {graph::OpNode::kGraphInput});
    const int b = make(graph::OpKind::kOpaque, "scale", {split});
    g.nodes[static_cast<std::size_t>(b)].layer = &scale;
    const int c = make(graph::OpKind::kRelu, "relu", {split});
    const int join = make(graph::OpKind::kAdd, "join", {b, c});
    g.outputs.push_back(join);

    graph::CompiledPlan plan(std::move(g), graph::CompileOptions{});
    EXPECT_EQ(plan.report().wide_level_nodes, opts_in ? 2u : 0u)
        << "opts_in=" << opts_in;
    const Tensor input = random_input(with_batch(sample, 2), 0x0a9);
    const Tensor& got = plan.run(input);
    for (std::size_t i = 0; i < got.numel(); ++i) {
      const float x = input.at(i);
      const float want = 3.0f * x + (x > 0.0f ? x : 0.0f);
      ASSERT_NEAR(got.at(i), want, 1e-6f) << "element " << i;
    }
  }
}

TEST(CompiledPlan, SingleLayerNetsCompileAndRun) {
  {
    Rng rng(3);
    nn::Sequential net;
    net.add(std::make_unique<nn::Dense>("fc", 6, 4, rng));
    net.set_training(false);
    graph::CompiledPlan plan =
        graph::compile(net, Shape{6}, graph::CompileOptions{});
    const Tensor input = random_input(Shape{5, 6}, 0xd);
    EXPECT_LE(max_rel_diff(plan.run(input), net.forward(input)), 1e-6);
  }
  {
    Rng rng(4);
    nn::Sequential net;
    net.add(
        std::make_unique<nn::Conv2d>("c", conv_cfg(2, 3, 3, 1, 1), rng));
    net.set_training(false);
    graph::CompiledPlan plan =
        graph::compile(net, Shape{2, 9, 9}, graph::CompileOptions{});
    const Tensor input = random_input(Shape{2, 2, 9, 9}, 0xe);
    EXPECT_LE(max_rel_diff(plan.run(input), net.forward(input)), 1e-6);
  }
}

TEST(CompiledPlan, DeconvChainMatchesEager) {
  Rng rng(5);
  nn::Deconv2dConfig dc;
  dc.in_channels = 4;
  dc.out_channels = 2;
  dc.kernel = 6;
  dc.stride = 2;
  dc.pad = 2;
  nn::Sequential net;
  net.add(std::make_unique<nn::Deconv2d>("up", dc, rng));
  net.add(std::make_unique<nn::ReLU>("r"));
  net.set_training(false);
  graph::CompiledPlan plan = graph::compile(net, Shape{4, 8, 8});
  EXPECT_EQ(plan.report().passes.fused_activations, 1u);
  const Tensor input = random_input(Shape{3, 4, 8, 8}, 0xf);
  EXPECT_LE(max_rel_diff(plan.run(input), net.forward(input)), 1e-4);
}

TEST(CompiledPlan, SharedPoolAndReluKernelsMatchEagerBitExact) {
  // ReLU, max pool (overlapping 3x3/2 and the HEP 2x2/2) and global
  // pooling run one shared kernel on both paths; at batch 16 every one
  // of them fans out over the scheduler. Without the global pool the
  // pooled map itself is the output.
  for (const bool with_gap : {false, true}) {
    nn::Sequential net;
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 3, 2));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2, 2));
    if (with_gap) net.add(std::make_unique<nn::GlobalAvgPool>("gap"));
    net.set_training(false);
    const Shape sample{8, 67, 65};
    graph::CompiledPlan plan = graph::compile(net, sample);
    for (const std::size_t batch : {1u, 16u}) {
      const Tensor input =
          random_input(with_batch(sample, batch), 0x5a + batch);
      const Tensor& want = net.forward(input);
      const Tensor& got = plan.run(input);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.numel() * sizeof(float)),
                0)
          << "gap " << with_gap << " batch " << batch;
    }
  }
}

TEST(CompiledPlan, SecondPlanIsBornWarm) {
  // The first compile pre-tunes every conv geometry through the global
  // plan cache; compiling again (a second serving replica) must be all
  // hits — the born-warm contract.
  nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
  net.set_training(false);
  graph::CompiledPlan first = graph::compile(net, Shape{3, 32, 32});
  EXPECT_GT(first.report().pretuned_plans, 0u);
  graph::CompiledPlan second = graph::compile(net, Shape{3, 32, 32});
  EXPECT_EQ(second.report().pretuned_plans,
            first.report().pretuned_plans);
  EXPECT_EQ(second.report().pretune_misses, 0u);
}

TEST(CompiledPlan, TunesOnePlanPerConvNodeAtAnyBatch) {
  // Plans are keyed by (problem, phase): a cold compile tunes each
  // distinct pair of its kAuto conv/deconv nodes once, whatever max_batch
  // says, and runs at any batch reuse those plans.
  gemm::ConvPlanCache& cache = gemm::ConvPlanCache::global();
  cache.clear();
  nn::ClimateNet net(nn::ClimateConfig::tiny());
  net.set_training(false);
  graph::CompileOptions opt;
  opt.max_batch = 16;
  graph::CompiledPlan plan = graph::compile(net, opt);
  std::set<std::pair<gemm::ConvProblem, gemm::ConvPhase>> pairs;
  std::size_t conv_nodes = 0;
  for (const graph::OpNode& node : plan.graph().nodes) {
    if (node.algo != nn::ConvAlgo::kAuto) continue;
    if (node.kind == graph::OpKind::kConv) {
      pairs.emplace(node.problem, gemm::ConvPhase::kForward);
    } else if (node.kind == graph::OpKind::kDeconv) {
      pairs.emplace(node.problem, gemm::ConvPhase::kBackwardData);
    } else {
      continue;
    }
    ++conv_nodes;
  }
  ASSERT_GT(conv_nodes, 0u);
  EXPECT_EQ(plan.report().pretuned_plans, conv_nodes);
  EXPECT_EQ(plan.report().pretune_misses, pairs.size());
  EXPECT_EQ(cache.misses(), pairs.size());
  for (const std::size_t batch : {1u, 3u, 16u}) {
    plan.run_all(random_input(Shape{batch, 4, 32, 32}, 0xb0 + batch));
  }
  EXPECT_EQ(cache.misses(), pairs.size());
  cache.clear();
}

TEST(CompiledPlan, PrivateSchedulerPlanSpawnsNothingOnTheGlobalOne) {
  // Conv backends run serially inside the plan's image tasks, so a plan
  // on a 1-worker private scheduler leaves the global scheduler idle —
  // even under Winograd, whose position GEMMs once fanned out there.
  const nn::HepConfig cfg = nn::HepConfig::tiny();
  nn::Sequential net = nn::build_hep_network(cfg);
  net.set_training(false);
  gemm::ConvPlan winograd;
  winograd.kind = gemm::ConvBackendKind::kWinograd;
  std::size_t in_c = cfg.channels;
  for (std::size_t side = cfg.image; side > cfg.image >> cfg.conv_units;
       side /= 2) {
    gemm::ConvProblem p;
    p.geom.in_c = in_c;
    p.geom.in_h = p.geom.in_w = side;
    p.geom.kernel_h = p.geom.kernel_w = 3;
    p.geom.pad_h = p.geom.pad_w = 1;
    p.out_c = cfg.filters;
    gemm::ConvPlanCache::global().insert(p, winograd);
    in_c = cfg.filters;
  }
  TaskScheduler one_worker(1);
  graph::CompileOptions opt;
  opt.scheduler = &one_worker;
  graph::CompiledPlan private_plan =
      graph::compile(net, Shape{3, 32, 32}, opt);
  graph::CompiledPlan global_plan = graph::compile(net, Shape{3, 32, 32});
  EXPECT_EQ(gemm::ConvPlanCache::global().misses(), 0u);
  const Tensor input = random_input(Shape{8, 3, 32, 32}, 0x1e0);

  const std::uint64_t spawned = TaskScheduler::global().stats().spawned;
  const Tensor got = private_plan.run(input).clone();
  EXPECT_EQ(TaskScheduler::global().stats().spawned, spawned);
  const Tensor& want = global_plan.run(input);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)),
            0);
  gemm::ConvPlanCache::global().clear();
}

}  // namespace
}  // namespace pf15
