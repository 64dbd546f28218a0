// Serving subsystem tests: checkpoint round trips, eval-mode semantics,
// dynamic batching, backpressure, and end-to-end engine correctness
// (batched inference must match unbatched single-sample inference).
#include <gtest/gtest.h>

#include "check_failure.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "data/hep_generator.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/simd.hpp"
#include "graph/compiled_plan.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/hep_model.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "perf/latency.hpp"
#include "serve/batcher.hpp"
#include "serve/checkpoint.hpp"
#include "serve/engine.hpp"

namespace pf15 {
namespace {

using namespace std::chrono_literals;

nn::ResNetConfig tiny_resnet_config(std::uint64_t seed) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.stage_channels = {4, 8};
  cfg.blocks_per_stage = 1;
  cfg.batchnorm = true;  // exercise running-stat state in checkpoints
  cfg.seed = seed;
  return cfg;
}

nn::HepConfig tiny_hep_config() {
  nn::HepConfig cfg = nn::HepConfig::tiny();
  cfg.filters = 8;
  // The engine-mechanics tests below assert bit-level agreement between
  // batched and single-sample inference. Force the im2col baseline:
  // under kAuto, different batch buckets may legitimately dispatch to
  // different backends, whose results agree only to fp tolerance (the
  // kAuto agreement tests cover that contract).
  cfg.algo = nn::ConvAlgo::kIm2col;
  return cfg;
}

/// A few train-mode forwards so BatchNorm running stats move away from
/// their (0, 1) initialisation — otherwise state round trips trivially.
void warm_up_running_stats(nn::Sequential& net, const Shape& in_shape,
                           std::uint64_t seed) {
  Rng rng(seed);
  Tensor batch(in_shape);
  for (int i = 0; i < 3; ++i) {
    batch.fill_normal(rng, 0.5f, 2.0f);
    net.forward(batch);
  }
}

// ---- checkpoint ------------------------------------------------------------

TEST(Checkpoint, RoundTripIsBitExact) {
  nn::Sequential a = nn::build_resnet(tiny_resnet_config(11));
  warm_up_running_stats(a, Shape{2, 3, 16, 16}, 5);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  serve::checkpoint_model(ss, a, "resnet");

  // Different seed: every weight differs before the restore.
  nn::Sequential b = nn::build_resnet(tiny_resnet_config(99));
  serve::restore_model(ss, b, "resnet");

  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].name, pb[i].name);
    ASSERT_EQ(pa[i].value->shape(), pb[i].value->shape());
    EXPECT_EQ(std::memcmp(pa[i].value->data(), pb[i].value->data(),
                          pa[i].value->numel() * sizeof(float)),
              0)
        << "param " << pa[i].name << " not bit-exact";
  }
  auto sa = a.state();
  auto sb = b.state();
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_GT(sa.size(), 0u) << "resnet with batchnorm should expose state";
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].name, sb[i].name);
    EXPECT_EQ(std::memcmp(sa[i].value->data(), sb[i].value->data(),
                          sa[i].value->numel() * sizeof(float)),
              0)
        << "state " << sa[i].name << " not bit-exact";
  }
}

TEST(Checkpoint, MetaCarriesKindAndVersion) {
  nn::Sequential net = nn::build_hep_network(tiny_hep_config());
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  serve::checkpoint_model(ss, net, "hep");
  const auto meta = serve::read_checkpoint_meta(ss);
  EXPECT_EQ(meta.model_kind, "hep");
  EXPECT_EQ(meta.version, serve::kCheckpointVersion);
}

TEST(Checkpoint, KindMismatchIsRefused) {
  nn::Sequential net = nn::build_hep_network(tiny_hep_config());
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  serve::checkpoint_model(ss, net, "hep");
  EXPECT_THROW(serve::restore_model(ss, net, "climate"), IoError);
}

TEST(Checkpoint, BadMagicIsRefused) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "this is not a checkpoint at all";
  nn::Sequential net = nn::build_hep_network(tiny_hep_config());
  EXPECT_THROW(serve::restore_model(ss, net, "hep"), IoError);
}

TEST(Checkpoint, ArchitectureMismatchIsRefused) {
  nn::Sequential a = nn::build_hep_network(tiny_hep_config());
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  serve::checkpoint_model(ss, a, "hep");

  nn::HepConfig wider = tiny_hep_config();
  wider.filters = 16;
  nn::Sequential b = nn::build_hep_network(wider);
  EXPECT_THROW(serve::restore_model(ss, b, "hep"), IoError);
}

// ---- save_params / load_params symmetry ------------------------------------

TEST(ParamStream, TruncatedStreamIsAnError) {
  nn::Sequential a = nn::build_hep_network(tiny_hep_config());
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  a.save_params(ss);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes,
                        std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(a.load_params(cut), IoError);
}

TEST(ParamStream, WrongArchitectureIsAnError) {
  nn::Sequential a = nn::build_hep_network(tiny_hep_config());
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  a.save_params(ss);

  nn::Sequential r = nn::build_resnet(tiny_resnet_config(3));
  EXPECT_THROW(r.load_params(ss), IoError);
}

TEST(ParamStream, RoundTripRestoresValues) {
  nn::Sequential a = nn::build_hep_network(tiny_hep_config());
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  a.save_params(ss);

  nn::HepConfig cfg = tiny_hep_config();
  cfg.seed = 777;  // different init
  nn::Sequential b = nn::build_hep_network(cfg);
  b.load_params(ss);

  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(max_abs_diff(*pa[i].value, *pb[i].value), 0.0f);
  }
}

// ---- eval mode -------------------------------------------------------------

TEST(EvalMode, SequentialPropagatesToLayers) {
  nn::Sequential net;
  net.add(std::make_unique<nn::BatchNorm2d>("bn",
                                            nn::BatchNormConfig{.channels = 2}));
  net.add(std::make_unique<nn::Dropout>("drop", 0.5f));
  auto* bn = dynamic_cast<nn::BatchNorm2d*>(&net.layer(0));
  auto* drop = dynamic_cast<nn::Dropout*>(&net.layer(1));
  ASSERT_NE(bn, nullptr);
  ASSERT_NE(drop, nullptr);

  EXPECT_TRUE(bn->training());
  EXPECT_TRUE(drop->training());
  net.set_training(false);
  EXPECT_FALSE(net.training());
  EXPECT_FALSE(bn->training());
  EXPECT_FALSE(drop->training());
}

TEST(EvalMode, BatchNormDivergesFromTrainMode) {
  nn::Sequential net;
  net.add(std::make_unique<nn::BatchNorm2d>("bn",
                                            nn::BatchNormConfig{.channels = 2}));
  Rng rng(42);
  Tensor x(Shape{4, 2, 3, 3});
  x.fill_normal(rng, 3.0f, 2.0f);  // far from the (0,1) running stats

  Tensor train_out = net.forward(x).clone();
  net.set_training(false);
  Tensor eval_out = net.forward(x).clone();

  // Train mode normalises by batch statistics (mean ~3, var ~4); eval mode
  // uses the barely-updated running estimates — the outputs must differ.
  EXPECT_GT(max_abs_diff(train_out, eval_out), 0.1f);
}

TEST(EvalMode, InferenceIsBatchSizeInvariant) {
  nn::Sequential net = nn::build_resnet(tiny_resnet_config(21));
  warm_up_running_stats(net, Shape{4, 3, 8, 8}, 9);
  net.set_training(false);

  Rng rng(1);
  Tensor batch(Shape{3, 3, 8, 8});
  batch.fill_normal(rng, 0.0f, 1.0f);
  Tensor batched_out = net.forward(batch).clone();

  const std::size_t out_numel = batched_out.numel() / 3;
  for (std::size_t i = 0; i < 3; ++i) {
    Tensor sample = extract_sample(batch, i);
    Tensor single = stack_samples({&sample});
    const Tensor& single_out = net.forward(single);
    ASSERT_EQ(single_out.numel(), out_numel);
    for (std::size_t j = 0; j < out_numel; ++j) {
      EXPECT_NEAR(single_out.at(j), batched_out.at(i * out_numel + j), 1e-6)
          << "sample " << i << " element " << j;
    }
  }
}

// ---- batcher ---------------------------------------------------------------

TEST(Batcher, CoalescesQueuedRequestsUpToMaxBatch) {
  serve::BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 0;  // take only what is already queued
  cfg.queue_capacity = 64;
  serve::DynamicBatcher batcher(cfg);

  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 20; ++i) {
    Tensor t(Shape{1});
    t.fill(static_cast<float>(i));
    futures.push_back(batcher.submit(std::move(t)));
  }

  auto b1 = batcher.next_batch();
  EXPECT_EQ(b1.size(), 8u);
  auto b2 = batcher.next_batch();
  EXPECT_EQ(b2.size(), 8u);
  auto b3 = batcher.next_batch();
  EXPECT_EQ(b3.size(), 4u);

  // FIFO order is preserved across batches.
  EXPECT_FLOAT_EQ(b1[0].input.at(0), 0.0f);
  EXPECT_FLOAT_EQ(b2[0].input.at(0), 8.0f);
  EXPECT_FLOAT_EQ(b3[3].input.at(0), 19.0f);

  for (auto* batch : {&b1, &b2, &b3}) {
    for (auto& req : *batch) req.result.set_value(req.input.clone());
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_FLOAT_EQ(futures[i].get().at(0), static_cast<float>(i));
  }
}

TEST(Batcher, ConcurrentProducersAllGetServed) {
  serve::BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 16;
  serve::DynamicBatcher batcher(cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  constexpr int kTotal = kProducers * kPerProducer;

  std::atomic<int> served{0};
  std::atomic<int> batches{0};
  std::thread consumer([&] {
    while (served.load() < kTotal) {
      auto batch = batcher.next_batch();
      if (batch.empty()) break;
      EXPECT_LE(batch.size(), cfg.max_batch);
      for (auto& req : batch) {
        req.result.set_value(req.input.clone());
        served.fetch_add(1);
      }
      batches.fetch_add(1);
    }
  });

  std::vector<std::thread> producers;
  std::atomic<int> ok{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Tensor t(Shape{1});
        t.fill(static_cast<float>(p * kPerProducer + i));
        auto fut = batcher.submit(std::move(t));
        if (fut.get().at(0) == static_cast<float>(p * kPerProducer + i)) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  batcher.close();
  consumer.join();

  EXPECT_EQ(ok.load(), kTotal);
  EXPECT_EQ(served.load(), kTotal);
  EXPECT_LE(batches.load(), kTotal);  // never more batches than requests
}

TEST(Batcher, BackpressureBoundsTheQueue) {
  serve::BatcherConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 4;
  serve::DynamicBatcher batcher(cfg);

  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 4; ++i) {
    auto fut = batcher.try_submit(Tensor(Shape{1}));
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  EXPECT_EQ(batcher.depth(), 4u);
  EXPECT_FALSE(batcher.try_submit(Tensor(Shape{1})).has_value());
  // The shed request shows up in the rejection counter; the four queued
  // ones in the acceptance counter.
  EXPECT_EQ(batcher.rejected(), 1u);
  EXPECT_EQ(batcher.accepted(), 4u);

  // Draining a batch frees capacity again.
  auto batch = batcher.next_batch();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batcher.try_submit(Tensor(Shape{1})).has_value());
  EXPECT_EQ(batcher.accepted(), 5u);
  EXPECT_EQ(batcher.rejected(), 1u);
  EXPECT_EQ(batcher.depth(), 3u);

  // Clean up outstanding promises.
  for (auto& req : batch) req.result.set_value(Tensor(Shape{1}));
}

TEST(Batcher, BlockingSubmitWaitsForRoom) {
  serve::BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 2;
  serve::DynamicBatcher batcher(cfg);

  (void)batcher.submit(Tensor(Shape{1}));
  (void)batcher.submit(Tensor(Shape{1}));

  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  std::thread blocked([&] {
    entered.store(true);
    (void)batcher.submit(Tensor(Shape{1}));  // must block: queue full
    finished.store(true);
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(finished.load()) << "submit returned despite a full queue";

  auto batch = batcher.next_batch();  // frees room, wakes the producer
  blocked.join();
  EXPECT_TRUE(finished.load());

  for (auto& req : batch) req.result.set_value(Tensor(Shape{1}));
  batcher.close();
}

TEST(Batcher, CloseRefusesNewAndDrainsOld) {
  serve::BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 8;
  serve::DynamicBatcher batcher(cfg);

  auto fut = batcher.submit(Tensor(Shape{1}));
  batcher.close();

  EXPECT_THROW(batcher.submit(Tensor(Shape{1})), serve::ShutdownError);
  EXPECT_THROW(batcher.try_submit(Tensor(Shape{1})), serve::ShutdownError);

  // The queued request is still drainable...
  auto batch = batcher.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  batch[0].result.set_value(Tensor(Shape{1}));
  (void)fut.get();
  // ...and once drained, next_batch signals exit.
  EXPECT_TRUE(batcher.next_batch().empty());
}

// Stress the submit-vs-shutdown race: producers hammer submit/try_submit
// while workers drain with a max_wait short enough that the linger
// deadline regularly elapses exactly as close() lands. The invariant:
// every request the batcher *accepted* is served exactly once (its future
// resolves), every rejected submission threw ShutdownError, and nothing
// hangs or is lost in the timed-wait wakeup.
TEST(Batcher, StressSubmitRacingShutdown) {
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    serve::BatcherConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_us = 100 + 40 * static_cast<std::uint64_t>(round % 4);
    cfg.queue_capacity = 8;
    serve::DynamicBatcher batcher(cfg);

    std::atomic<int> served{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([&] {
        while (true) {
          auto batch = batcher.next_batch();
          if (batch.empty()) return;  // closed and drained
          for (auto& req : batch) {
            req.result.set_value(req.input.clone());
            served.fetch_add(1);
          }
        }
      });
    }

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 40;
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::atomic<int> fulfilled{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          Tensor t(Shape{1});
          t.fill(static_cast<float>(p * kPerProducer + i));
          try {
            std::future<Tensor> fut =
                (i % 2 == 0) ? batcher.submit(std::move(t))
                             : [&]() -> std::future<Tensor> {
                                 auto maybe =
                                     batcher.try_submit(std::move(t));
                                 if (!maybe.has_value()) {
                                   throw serve::ShutdownError("full");
                                 }
                                 return std::move(*maybe);
                               }();
            accepted.fetch_add(1);
            // An accepted request must resolve with the right payload.
            EXPECT_FLOAT_EQ(fut.get().at(0),
                            static_cast<float>(p * kPerProducer + i));
            fulfilled.fetch_add(1);
          } catch (const serve::ShutdownError&) {
            rejected.fetch_add(1);
          }
        }
      });
    }

    // Let traffic flow briefly, then slam the door mid-stream. The varied
    // sleep lands close() at different phases of the workers' linger
    // window, including "deadline just elapsed".
    std::this_thread::sleep_for(
        std::chrono::microseconds(200 + 150 * (round % 5)));
    batcher.close();

    for (auto& t : producers) t.join();
    for (auto& t : workers) t.join();

    EXPECT_EQ(accepted.load() + rejected.load(),
              kProducers * kPerProducer);
    EXPECT_EQ(fulfilled.load(), accepted.load());
    EXPECT_EQ(served.load(), accepted.load());
  }
}

TEST(Batcher, DestructionFailsPendingRequestsWithShutdownError) {
  // A batcher destroyed with accepted-but-undrained requests (no worker
  // ever ran) must fail those futures with ShutdownError, not
  // std::future_error(broken_promise).
  std::future<Tensor> orphan;
  {
    serve::BatcherConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_us = 0;
    cfg.queue_capacity = 4;
    serve::DynamicBatcher batcher(cfg);
    orphan = batcher.submit(Tensor(Shape{1}));
    batcher.close();
  }
  EXPECT_THROW(orphan.get(), serve::ShutdownError);
}

// ---- perf latency recorder -------------------------------------------------

TEST(LatencyRecorder, NearestRankPercentiles) {
  perf::LatencyRecorder rec;
  for (int i = 100; i >= 1; --i) rec.record(static_cast<double>(i));
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_DOUBLE_EQ(rec.percentile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(rec.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(rec.percentile(1.0), 100.0);

  const auto s = rec.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  // Nearest-rank p999 over only 100 samples degenerates to the max.
  EXPECT_DOUBLE_EQ(s.p999, 100.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-12);
}

TEST(LatencyRecorder, P999ResolvesWithEnoughSamples) {
  perf::LatencyRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.record(static_cast<double>(i));
  const auto s = rec.summary();
  // ceil(0.999 * 1000) = 999th order statistic: one below the max.
  EXPECT_DOUBLE_EQ(s.p999, 999.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_LE(s.p99, s.p999);
}

TEST(LatencyRecorder, BoundedReservoirKeepsExactCountMeanMax) {
  perf::LatencyRecorder rec(64);
  for (int i = 1; i <= 1000; ++i) rec.record(static_cast<double>(i));
  EXPECT_EQ(rec.count(), 1000u);

  const auto s = rec.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);   // exact despite subsampling
  EXPECT_NEAR(s.mean, 500.5, 1e-9);  // exact despite subsampling
  // Percentiles come from a 64-sample uniform reservoir: sanity bounds.
  EXPECT_GT(s.p99, s.p50);
  EXPECT_GE(s.p50, 1.0);
  EXPECT_LE(s.p99, 1000.0);
}

// ---- engine ----------------------------------------------------------------

serve::EngineConfig tiny_engine_config(std::size_t replicas,
                                       std::size_t max_batch) {
  serve::EngineConfig cfg;
  cfg.replicas = replicas;
  cfg.sample_shape = Shape{3, 32, 32};
  cfg.batcher.max_batch = max_batch;
  cfg.batcher.max_wait_us = 200;
  cfg.batcher.queue_capacity = 256;
  return cfg;
}

TEST(ServingEngine, BatchedResultsMatchUnbatchedInference) {
  const nn::HepConfig net_cfg = tiny_hep_config();
  auto factory = [&] { return nn::build_hep_network(net_cfg); };

  // Same deterministic factory -> reference net has identical weights.
  nn::Sequential reference = factory();
  reference.set_training(false);

  serve::ServingEngine engine(factory, tiny_engine_config(2, 8));

  constexpr int kRequests = 64;
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 32;
  data::HepGenerator gen(gen_cfg, 3);

  std::vector<Tensor> samples;
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    samples.push_back(gen.generate(i % 2 == 0).image.clone());
  }
  for (auto& s : samples) futures.push_back(engine.submit(s));

  for (int i = 0; i < kRequests; ++i) {
    Tensor got = futures[i].get();
    Tensor single = stack_samples({&samples[i]});
    const Tensor& want = reference.forward(single);
    ASSERT_EQ(got.numel(), want.numel());
    for (std::size_t j = 0; j < got.numel(); ++j) {
      EXPECT_NEAR(got.at(j), want.at(j), 1e-6)
          << "request " << i << " logit " << j;
    }
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, static_cast<std::size_t>(kRequests));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, static_cast<std::size_t>(kRequests));
  EXPECT_GE(stats.mean_batch_size, 1.0);
  EXPECT_EQ(stats.latency.count, static_cast<std::size_t>(kRequests));
  EXPECT_LE(stats.latency.p50, stats.latency.p99);
  EXPECT_LE(stats.latency.p99, stats.latency.p999);
  EXPECT_GT(stats.throughput_rps, 0.0);
  // Every future resolved before stats(): nothing queued, nothing in
  // flight, and blocking submit never sheds load.
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ServingEngine, ServesFromCheckpointFile) {
  const nn::HepConfig net_cfg = tiny_hep_config();
  auto factory = [&] { return nn::build_hep_network(net_cfg); };

  // "Train" by perturbing weights away from init, then checkpoint.
  nn::Sequential trained = factory();
  Rng rng(5);
  for (auto& p : trained.params()) {
    Tensor noise(p.value->shape());
    noise.fill_normal(rng, 0.0f, 0.05f);
    p.value->axpy(1.0f, noise);
  }
  const std::string path = "test_serve_ckpt.bin";
  serve::checkpoint_model_file(path, trained, "hep");

  trained.set_training(false);
  serve::ServingEngine engine(factory, path, "hep",
                              tiny_engine_config(2, 4));

  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 32;
  data::HepGenerator gen(gen_cfg, 7);

  std::vector<std::thread> producers;
  std::mutex sample_mutex;
  std::vector<std::pair<Tensor, std::future<Tensor>>> inflight;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      data::HepGenerator local_gen(gen_cfg, 100 + p);
      for (int i = 0; i < 8; ++i) {
        Tensor sample = local_gen.generate(i % 2 == 0).image.clone();
        auto fut = engine.submit(sample);
        std::lock_guard<std::mutex> lock(sample_mutex);
        inflight.emplace_back(std::move(sample), std::move(fut));
      }
    });
  }
  for (auto& t : producers) t.join();

  for (auto& [sample, fut] : inflight) {
    Tensor got = fut.get();
    Tensor single = stack_samples({&sample});
    const Tensor& want = trained.forward(single);
    for (std::size_t j = 0; j < got.numel(); ++j) {
      EXPECT_NEAR(got.at(j), want.at(j), 1e-6);
    }
  }

  engine.shutdown();
  EXPECT_THROW(engine.submit(Tensor(Shape{3, 32, 32})),
               serve::ShutdownError);
  std::remove(path.c_str());
}

TEST(ServingEngine, RejectsWrongSampleShape) {
  auto factory = [] { return nn::build_hep_network(tiny_hep_config()); };
  serve::ServingEngine engine(factory, tiny_engine_config(1, 4));
  PF15_EXPECT_CHECK_FAIL(engine.submit(Tensor(Shape{3, 16, 16})),
                         "sample shape");
}

// ---- compiled serving ------------------------------------------------------

/// A stack exercising every graph pass in the serving path: conv -> BN ->
/// ReLU -> Dropout, twice, then GAP + classifier.
nn::Sequential build_bn_dropout_net(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential net;
  std::size_t in_c = 3;
  for (int u = 0; u < 2; ++u) {
    nn::Conv2dConfig conv;
    conv.in_channels = in_c;
    conv.out_channels = 6;
    conv.kernel = 3;
    conv.stride = 1;
    conv.pad = 1;
    const std::string idx = std::to_string(u + 1);
    net.add(std::make_unique<nn::Conv2d>("conv" + idx, conv, rng));
    nn::BatchNormConfig bn;
    bn.channels = 6;
    net.add(std::make_unique<nn::BatchNorm2d>("bn" + idx, bn));
    net.add(std::make_unique<nn::ReLU>("relu" + idx));
    net.add(std::make_unique<nn::Dropout>("drop" + idx, 0.3f));
    in_c = 6;
  }
  net.add(std::make_unique<nn::GlobalAvgPool>("gap"));
  net.add(std::make_unique<nn::Dense>("fc", 6, 2, rng));
  return net;
}

TEST(CompiledServing, CompiledEngineMatchesEagerReference) {
  auto factory = [] { return build_bn_dropout_net(11); };
  // Train-mode forwards move the BN running statistics, then the warmed
  // weights travel through a checkpoint into both the engine and the
  // eager reference.
  nn::Sequential trained = factory();
  warm_up_running_stats(trained, Shape{6, 3, 32, 32}, 99);
  const std::string path = "test_serve_compiled_ckpt.bin";
  serve::checkpoint_model_file(path, trained, "bnnet");

  serve::EngineConfig cfg = tiny_engine_config(2, 8);
  cfg.compiled = true;
  serve::ServingEngine engine(factory, path, "bnnet", cfg);
  ASSERT_NE(engine.compile_report(), nullptr);
  // Both BNs folded, both Dropouts stripped, both ReLUs fused.
  EXPECT_EQ(engine.compile_report()->passes.folded_batchnorms, 2u);
  EXPECT_EQ(engine.compile_report()->passes.stripped_noops, 2u);
  EXPECT_EQ(engine.compile_report()->passes.fused_activations, 2u);
  EXPECT_LT(engine.compile_report()->arena_floats_per_sample,
            engine.compile_report()->eager_floats_per_sample);

  nn::Sequential reference = factory();
  serve::restore_model_file(path, reference, "bnnet");
  reference.set_training(false);

  Rng rng(21);
  std::vector<Tensor> samples;
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 32; ++i) {
    Tensor s(Shape{3, 32, 32});
    s.fill_uniform(rng, -1.0f, 1.0f);
    samples.push_back(std::move(s));
  }
  for (auto& s : samples) futures.push_back(engine.submit(s));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Tensor got = futures[i].get();
    Tensor single = stack_samples({&samples[i]});
    const Tensor& want = reference.forward(single);
    ASSERT_EQ(got.numel(), want.numel());
    for (std::size_t j = 0; j < got.numel(); ++j) {
      // Folded BN and fused epilogues reassociate float math; batched
      // kAuto may also dispatch a different backend than the single-
      // sample reference. 1e-4 relative is the compiled-path contract.
      const double tol =
          1e-4 * (1.0 + std::abs(static_cast<double>(want.at(j))));
      EXPECT_NEAR(got.at(j), want.at(j), tol)
          << "request " << i << " logit " << j;
    }
  }
  engine.shutdown();
  std::remove(path.c_str());
}

TEST(CompiledServing, CheckpointCarriesPlansForColdWarmStart) {
  const nn::HepConfig net_cfg = [] {
    nn::HepConfig cfg = nn::HepConfig::tiny();
    cfg.filters = 8;
    return cfg;  // algo stays kAuto: plans matter only for kAuto
  }();
  auto factory = [&] { return nn::build_hep_network(net_cfg); };
  constexpr std::size_t kMaxBatch = 8;

  // "Trainer process": compile once (pre-tunes every geometry through
  // the global cache) and ship weights + plans in one checkpoint.
  nn::Sequential trained = factory();
  trained.set_training(false);
  const graph::CompiledPlan plan = graph::compile(trained, Shape{3, 32, 32});
  EXPECT_GT(plan.report().pretuned_plans, 0u);
  const std::string path = "test_serve_warm_ckpt.bin";
  serve::checkpoint_model_file_with_plans(path, trained, "hep",
                                          gemm::ConvPlanCache::global());

  // "Cold serving process": empty cache, restore, compile — must be all
  // hits (zero first-sight tunes).
  gemm::ConvPlanCache::global().clear();
  serve::EngineConfig cfg = tiny_engine_config(2, kMaxBatch);
  cfg.compiled = true;
  serve::ServingEngine engine(factory, path, "hep", cfg);
  ASSERT_NE(engine.compile_report(), nullptr);
  EXPECT_GT(engine.compile_report()->pretuned_plans, 0u);
  EXPECT_EQ(engine.compile_report()->pretune_misses, 0u);

  // And it still serves correct results.
  nn::Sequential reference = factory();
  serve::restore_model_file(path, reference, "hep");
  reference.set_training(false);
  Rng rng(31);
  Tensor sample(Shape{3, 32, 32});
  sample.fill_uniform(rng, -1.0f, 1.0f);
  Tensor got = engine.submit(sample).get();
  Tensor single = stack_samples({&sample});
  const Tensor& want = reference.forward(single);
  for (std::size_t j = 0; j < got.numel(); ++j) {
    const double tol =
        1e-4 * (1.0 + std::abs(static_cast<double>(want.at(j))));
    EXPECT_NEAR(got.at(j), want.at(j), tol);
  }
  engine.shutdown();
  std::remove(path.c_str());
}

/// A plan document written by hand the way a process at format `version`
/// wrote it: this host's hardware signature and one forward entry for the
/// first conv of the tiny HEP net (3 -> 8 channels, 3x3, 32 px). Writers
/// before version 6 also stored the execution mode and batch bucket.
std::string handwritten_plan_doc(int version, const char* backend) {
  std::ostringstream doc;
  doc << "{\"format\": \"pf15.conv_plan_cache\", \"version\": " << version
      << ", \"hardware\": {\"threads\": "
      << std::thread::hardware_concurrency()
      << ", \"pointer_bits\": " << 8 * sizeof(void*) << ", \"isa\": \""
      << gemm::simd_isa_string() << "\"}, \"plans\": [{\"in_c\": 3, "
      << "\"in_h\": 32, \"in_w\": 32, \"kernel_h\": 3, \"kernel_w\": 3, "
      << "\"stride_h\": 1, \"stride_w\": 1, \"pad_h\": 1, \"pad_w\": 1, "
      << "\"out_c\": 8, \"phase\": \"forward\", "
      << (version < 6 ? "\"parallel_ok\": true, \"batch\": 8, " : "")
      << "\"backend\": \"" << backend << "\", "
      << "\"best_us\": 10, \"im2col_us\": 20, \"tuned\": true}]}";
  return doc.str();
}

TEST(CompiledServing, VersionThreePlanSectionIsIgnoredAndRetuned) {
  // Every plan-carrying checkpoint written at an older format version
  // takes this path — version 3 (may name "fft") and version 5 (plans
  // keyed by execution mode and batch bucket): the embedded section fails
  // the version check, the engine logs that it ignores it, tunes from
  // scratch and still serves correct results.
  const nn::HepConfig net_cfg = nn::HepConfig::tiny();  // kAuto
  auto factory = [&] { return nn::build_hep_network(net_cfg); };
  const struct {
    int version;
    const char* backend;
  } sections[] = {{3, "fft"}, {5, "im2col"}};
  for (const auto& section : sections) {
    SCOPED_TRACE("version " + std::to_string(section.version));
    nn::Sequential trained = factory();
    const std::string path = "test_serve_old_plans_ckpt.bin";
    {
      std::ofstream out(path, std::ios::binary);
      serve::checkpoint_model(out, trained, "hep");
      serve::write_embedded_plans(
          out, handwritten_plan_doc(section.version, section.backend));
    }

    gemm::ConvPlanCache::global().clear();
    serve::EngineConfig cfg = tiny_engine_config(2, 8);
    cfg.compiled = true;
    serve::ServingEngine engine(factory, path, "hep", cfg);
    ASSERT_NE(engine.compile_report(), nullptr);
    EXPECT_GT(engine.compile_report()->pretune_misses, 0u);

    nn::Sequential reference = factory();
    serve::restore_model_file(path, reference, "hep");
    reference.set_training(false);
    Rng rng(37);
    for (int i = 0; i < 4; ++i) {
      Tensor sample(Shape{3, 32, 32});
      sample.fill_uniform(rng, -1.0f, 1.0f);
      Tensor got = engine.submit(sample).get();
      Tensor single = stack_samples({&sample});
      const Tensor& want = reference.forward(single);
      ASSERT_EQ(got.numel(), want.numel());
      for (std::size_t j = 0; j < got.numel(); ++j) {
        const double tol =
            1e-4 * (1.0 + std::abs(static_cast<double>(want.at(j))));
        EXPECT_NEAR(got.at(j), want.at(j), tol) << "request " << i;
      }
    }
    engine.shutdown();
    std::remove(path.c_str());
  }
}

TEST(CompiledServing, CurrentVersionSectionNamingRetiredBackendIsRejected) {
  // "fft" and "direct" are no longer backends: a current-version section
  // naming either is corrupt, not a plan to dispatch.
  for (const std::string retired : {"fft", "direct"}) {
    SCOPED_TRACE(retired);
    nn::Sequential net = nn::build_hep_network(nn::HepConfig::tiny());
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    serve::checkpoint_model(stream, net, "hep");
    serve::write_embedded_plans(
        stream,
        handwritten_plan_doc(gemm::kConvPlanCacheVersion, retired.c_str()));
    nn::Sequential restored = nn::build_hep_network(nn::HepConfig::tiny());
    serve::restore_model(stream, restored, "hep");
    const std::string plans = serve::read_embedded_plans(stream);
    gemm::ConvPlanCache cache;
    try {
      cache.load_document(plans, "checkpoint");
      ADD_FAILURE() << "a plan naming " << retired << " was accepted";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown backend '" + retired +
                                           "'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cache.size(), 0u);
  }
  // The same section with a registered backend loads.
  gemm::ConvPlanCache cache;
  cache.load_document(
      handwritten_plan_doc(gemm::kConvPlanCacheVersion, "im2col"),
      "checkpoint");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CompiledServing, PlainCheckpointsStillReadAndCarryNoPlans) {
  nn::Sequential net = nn::build_hep_network(tiny_hep_config());
  std::stringstream stream(std::ios::in | std::ios::out |
                           std::ios::binary);
  serve::checkpoint_model(stream, net, "hep");
  nn::Sequential restored = nn::build_hep_network(tiny_hep_config());
  serve::restore_model(stream, restored, "hep");
  EXPECT_EQ(serve::read_embedded_plans(stream), "");

  // Trailing garbage after the payload is a corrupt file, not "no plans".
  std::stringstream bad(std::ios::in | std::ios::out | std::ios::binary);
  serve::checkpoint_model(bad, net, "hep");
  bad << "garbage";
  nn::Sequential restored2 = nn::build_hep_network(tiny_hep_config());
  serve::restore_model(bad, restored2, "hep");
  EXPECT_THROW(serve::read_embedded_plans(bad), IoError);

  // A valid section magic with a length field exceeding the stream must
  // be IoError too — never a std::length_error / giant allocation.
  std::stringstream huge(std::ios::in | std::ios::out | std::ios::binary);
  serve::checkpoint_model(huge, net, "hep");
  huge.write("PF15PLN1", 8);
  const std::uint64_t bogus_len = ~std::uint64_t{0} / 2;
  huge.write(reinterpret_cast<const char*>(&bogus_len), sizeof(bogus_len));
  huge << "{}";
  nn::Sequential restored3 = nn::build_hep_network(tiny_hep_config());
  serve::restore_model(huge, restored3, "hep");
  EXPECT_THROW(serve::read_embedded_plans(huge), IoError);
}

}  // namespace
}  // namespace pf15
