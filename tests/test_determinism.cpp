// Thread-count determinism: the contract of gp::exec is that every result
// produced through it is bitwise-identical whether the work runs on 1
// thread or 8. These tests exercise the parallelised layers — NN kernels,
// dataset synthesis, training, and replica inference — with explicit
// ExecContext(1) vs ExecContext(8) (the GP_THREADS=1 vs GP_THREADS=8
// configurations, pinned in-process so one binary checks both).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datasets/catalog.hpp"
#include "datasets/dataset.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"
#include "health/slo.hpp"
#include "nn/tensor.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace gp {
namespace {

DatasetSpec small_spec() {
  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 2;
  DatasetSpec spec = gestureprint_spec(0, scale);
  spec.gestures.resize(3);
  return spec;
}

// Field-wise exact comparison (EXPECT_EQ on doubles is bitwise-equivalent
// for non-NaN values; memcmp would also compare struct padding).
void expect_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    const GestureSample& sa = a.samples[s];
    const GestureSample& sb = b.samples[s];
    EXPECT_EQ(sa.user, sb.user) << "sample " << s;
    EXPECT_EQ(sa.gesture, sb.gesture) << "sample " << s;
    EXPECT_EQ(sa.distance, sb.distance) << "sample " << s;
    EXPECT_EQ(sa.speed, sb.speed) << "sample " << s;
    EXPECT_EQ(sa.active_frames, sb.active_frames) << "sample " << s;
    EXPECT_EQ(sa.cloud.num_frames, sb.cloud.num_frames) << "sample " << s;
    EXPECT_EQ(sa.cloud.first_frame, sb.cloud.first_frame) << "sample " << s;
    EXPECT_EQ(sa.cloud.duration_s, sb.cloud.duration_s) << "sample " << s;
    ASSERT_EQ(sa.cloud.points.size(), sb.cloud.points.size()) << "sample " << s;
    for (std::size_t p = 0; p < sa.cloud.points.size(); ++p) {
      const RadarPoint& pa = sa.cloud.points[p];
      const RadarPoint& pb = sb.cloud.points[p];
      EXPECT_EQ(pa.position.x, pb.position.x) << "sample " << s << " point " << p;
      EXPECT_EQ(pa.position.y, pb.position.y) << "sample " << s << " point " << p;
      EXPECT_EQ(pa.position.z, pb.position.z) << "sample " << s << " point " << p;
      EXPECT_EQ(pa.velocity, pb.velocity) << "sample " << s << " point " << p;
      EXPECT_EQ(pa.snr_db, pb.snr_db) << "sample " << s << " point " << p;
      EXPECT_EQ(pa.frame, pb.frame) << "sample " << s << " point " << p;
    }
  }
}

TEST(Determinism, DatasetSynthesisIsThreadCountInvariant) {
  exec::ExecContext serial(1);
  exec::ExecContext wide(8);
  const DatasetSpec spec = small_spec();
  const Dataset a = generate_dataset(spec, serial);
  const Dataset b = generate_dataset(spec, wide);
  ASSERT_GT(a.samples.size(), 0u);
  expect_identical(a, b);
}

TEST(Determinism, DatasetSynthesisIsRepeatable) {
  exec::ExecContext wide(8);
  const DatasetSpec spec = small_spec();
  expect_identical(generate_dataset(spec, wide), generate_dataset(spec, wide));
}

TEST(Determinism, MatmulKernelsAreThreadCountInvariant) {
  exec::ExecContext serial(1);
  exec::ExecContext wide(8);
  Rng rng(99);
  // Big enough to clear the inline-below-threshold heuristic.
  nn::Tensor a(96, 160);
  a.randn(rng, 1.0);
  nn::Tensor b(160, 64);
  b.randn(rng, 1.0);
  nn::Tensor out_s, out_w;
  nn::matmul(a, b, out_s, serial);
  nn::matmul(a, b, out_w, wide);
  EXPECT_TRUE(out_s.vec() == out_w.vec());

  nn::Tensor at(160, 96);
  at.randn(rng, 1.0);
  nn::matmul_at(at, b, out_s, serial);
  nn::matmul_at(at, b, out_w, wide);
  EXPECT_TRUE(out_s.vec() == out_w.vec());
}

// --- training determinism on a tiny synthetic task -------------------------

FeaturizedSample synth_sample(int label, Rng& rng, std::size_t points = 24) {
  FeaturizedSample s;
  s.num_points = points;
  s.dims = 7;
  const double offset = label == 0 ? -0.25 : 0.25;
  const double velocity = label == 0 ? 0.1 : 0.8;
  for (std::size_t i = 0; i < points; ++i) {
    const double x = offset + rng.gaussian(0.0, 0.08);
    const double y = rng.gaussian(0.0, 0.08);
    const double z = rng.gaussian(0.0, 0.08);
    s.positions.insert(s.positions.end(),
                       {static_cast<float>(x), static_cast<float>(y), static_cast<float>(z)});
    s.features.insert(
        s.features.end(),
        {static_cast<float>(x), static_cast<float>(y), static_cast<float>(z),
         static_cast<float>(velocity + rng.gaussian(0.0, 0.05)), 0.5f,
         static_cast<float>(rng.uniform()), 0.6f});
  }
  return s;
}

GesIDNetConfig tiny_config() {
  GesIDNetConfig config;
  config.num_classes = 2;
  config.sa1_centroids = 8;
  config.sa1_scales = {{0.3, 4, {8, 12}}, {0.6, 6, {12, 16}}};
  config.sa2_centroids = 4;
  config.sa2_scales = {{0.5, 3, {16, 20}}};
  config.level1_mlp = {24, 32};
  config.level2_mlp = {32, 40};
  config.head1_hidden = 16;
  config.head2_hidden = 16;
  return config;
}

// Full training run with 1 vs 8 threads: every epoch loss must match
// bitwise and the trained models must emit bitwise-identical logits.
TEST(Determinism, TrainingLossIsThreadCountInvariant) {
  LabeledSamples data;
  {
    Rng rng(5);
    for (std::size_t i = 0; i < 12; ++i) {
      data.push(synth_sample(0, rng), 0);
      data.push(synth_sample(1, rng), 1);
    }
  }
  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.batch_size = 6;
  train_config.seed = 7;

  const auto run = [&](exec::ExecContext& ctx) {
    Rng rng(31);
    GesIDNet model(tiny_config(), rng);
    TrainStats stats = train_classifier(model, data, train_config, ctx);
    nn::Tensor logits = predict_logits(model, data.samples, train_config.batch_size, ctx);
    return std::make_pair(std::move(stats), std::move(logits));
  };

  exec::ExecContext serial(1);
  exec::ExecContext wide(8);
  auto [stats_s, logits_s] = run(serial);
  auto [stats_w, logits_w] = run(wide);

  ASSERT_EQ(stats_s.epoch_loss.size(), stats_w.epoch_loss.size());
  for (std::size_t e = 0; e < stats_s.epoch_loss.size(); ++e) {
    EXPECT_EQ(stats_s.epoch_loss[e], stats_w.epoch_loss[e]) << "epoch " << e;  // exact
  }
  EXPECT_EQ(stats_s.train_accuracy, stats_w.train_accuracy);
  EXPECT_TRUE(logits_s.vec() == logits_w.vec());
}

// A model owns its dropout stream: training it after the Rng it was built
// from has gone out of scope draws the same masks as training it while that
// Rng is alive. A layer that referred back to the caller's Rng would read a
// dead stack slot here (and fail under ASan).
TEST(Determinism, DropoutStreamOutlivesTheConstructionRng) {
  LabeledSamples data;
  {
    Rng rng(9);
    for (std::size_t i = 0; i < 12; ++i) {
      data.push(synth_sample(0, rng), 0);
      data.push(synth_sample(1, rng), 1);
    }
  }
  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.batch_size = 6;
  train_config.seed = 7;
  exec::ExecContext serial(1);

  Rng init(31);
  GesIDNet alive(tiny_config(), init);
  train_classifier(alive, data, train_config, serial);

  std::unique_ptr<GesIDNet> orphan = [] {
    Rng dead(31);
    return std::make_unique<GesIDNet>(tiny_config(), dead);
  }();
  train_classifier(*orphan, data, train_config, serial);

  const auto a = alive.parameters();
  const auto b = orphan->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i]->value.vec() == b[i]->value.vec()) << a[i]->name;
  }
}

// --- int8 quantized inference must be bitwise repeatable -------------------

// GP_QUANT=int8 keeps the determinism contract: the integer kernel's int32
// accumulation is exact, so two identically-trained models fused with
// QuantMode::kInt8 emit bitwise-identical logits, independent of thread
// count (predict_logits shards the samples over 1 and 8 lanes).
TEST(Determinism, QuantizedInferenceIsBitwiseRepeatable) {
  LabeledSamples data;
  {
    Rng rng(5);
    for (std::size_t i = 0; i < 12; ++i) {
      data.push(synth_sample(0, rng), 0);
      data.push(synth_sample(1, rng), 1);
    }
  }
  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.batch_size = 6;
  train_config.seed = 7;

  const auto train_fused = [&] {
    exec::ExecContext ctx(2);
    Rng rng(31);
    auto model = std::make_unique<GesIDNet>(tiny_config(), rng);
    train_classifier(*model, data, train_config, ctx);
    model->fuse_for_inference(nn::QuantMode::kInt8);
    return model;
  };

  const auto a = train_fused();
  const auto b = train_fused();
  exec::ExecContext serial(1);
  exec::ExecContext wide(8);
  const nn::Tensor la = predict_logits(*a, data.samples, 6, serial);
  const nn::Tensor lb = predict_logits(*b, data.samples, 6, wide);
  ASSERT_EQ(la.rows(), lb.rows());
  ASSERT_EQ(la.cols(), lb.cols());
  EXPECT_TRUE(la.vec() == lb.vec())
      << "int8 fused inference must be bitwise repeatable across runs/threads";

  // And repeatable on the same model instance (scratch rows must not leak
  // state between forward calls).
  const nn::Tensor lc = predict_logits(*a, data.samples, 6, serial);
  EXPECT_TRUE(la.vec() == lc.vec());
}

// --- serve: health observation must be invisible to results ----------------

// gp::health observes the serve stack but never feeds it: the same streams
// pushed through servers with health fully off vs fully on (SLO evaluator +
// flight recorder armed) must produce bitwise-identical ServeResults for 1
// and 8 threads. Runs registry-less — every segment gets the typed no-model
// abstention — so the whole admission → segmentation → featurization →
// micro-batch path is exercised without paying for a training run.
TEST(Determinism, ServeResultsInvariantToHealthMonitoring) {
  const DatasetSpec spec = small_spec();
  std::vector<ContinuousRecording> streams;
  for (std::size_t s = 0; s < 2; ++s) {
    streams.push_back(generate_recording(spec, s, {0, 1}, 0xD7 + s));
  }

  GesturePrintConfig system_config;
  serve::ModelRegistry registry(system_config);  // nothing published, on purpose

  const auto run = [&](bool health_on, std::size_t threads) {
    serve::ServeConfig sc;
    sc.system = system_config;
    sc.shards = 2;
    sc.batch_wait_us = 0;
    sc.health.enabled = health_on;
    sc.health.flightrec = health_on;
    if (health_on) {
      sc.health.slo = health::SloSpec::parse("no_model_rate<2,window=16t");
    }
    exec::ExecContext ctx(threads);
    serve::Server server(sc, registry, ctx);
    std::vector<serve::ServeResult> results;
    std::size_t max_frames = 0;
    for (const ContinuousRecording& r : streams) {
      max_frames = std::max(max_frames, r.frames.size());
    }
    for (std::size_t f = 0; f < max_frames; ++f) {
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (f >= streams[i].frames.size()) continue;
        (void)server.push_frame(static_cast<std::uint64_t>(i + 1), streams[i].frames[f]);
      }
      for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
    }
    for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
    std::sort(results.begin(), results.end(), [](const auto& a, const auto& b) {
      return a.session_id != b.session_id ? a.session_id < b.session_id
                                          : a.segment_ordinal < b.segment_ordinal;
    });
    return results;
  };

  std::vector<serve::ServeResult> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (bool health_on : {false, true}) {
      auto results = run(health_on, threads);
      ASSERT_GT(results.size(), 0u);
      if (reference.empty()) {
        reference = std::move(results);
        continue;
      }
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " health=" + (health_on ? "on" : "off"));
      ASSERT_EQ(reference.size(), results.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(reference[i].session_id, results[i].session_id);
        EXPECT_EQ(reference[i].segment_ordinal, results[i].segment_ordinal);
        EXPECT_EQ(reference[i].request_id, results[i].request_id);
        EXPECT_EQ(reference[i].gesture, results[i].gesture);
        EXPECT_EQ(reference[i].user, results[i].user);
        EXPECT_EQ(reference[i].abstained, results[i].abstained);
        EXPECT_EQ(reference[i].quality_rejected, results[i].quality_rejected);
        EXPECT_EQ(reference[i].gesture_margin, results[i].gesture_margin);  // bitwise
        EXPECT_EQ(reference[i].user_margin, results[i].user_margin);
        EXPECT_EQ(reference[i].model_version, results[i].model_version);
      }
    }
  }
}

// Sample-sharded parallel inference must agree bitwise with the serial path.
TEST(Determinism, PredictLogitsShardsMatchSerial) {
  std::vector<FeaturizedSample> samples;
  {
    Rng rng(17);
    for (std::size_t i = 0; i < 22; ++i) samples.push_back(synth_sample(static_cast<int>(i % 2), rng));
  }
  Rng rng(41);
  GesIDNet model(tiny_config(), rng);  // infer() runs in eval mode

  exec::ExecContext serial(1);
  exec::ExecContext wide(8);
  // Small batches so each lane runs several infer_into calls.
  const nn::Tensor a = predict_logits(model, samples, /*batch_size=*/4, serial);
  const nn::Tensor b = predict_logits(model, samples, /*batch_size=*/4, wide);
  ASSERT_EQ(a.rows(), samples.size());
  EXPECT_TRUE(a.vec() == b.vec());
}

// GesturePrintSystem trains each phase's independent models concurrently on
// the lanes of its ExecContext. fit, fine_tune and the head-only fine-tune
// must leave the .gpsy bytes of a one-lane run, in both identification
// modes. At 8 threads the serialized fit runs 3 lanes (costs 108, 72, 72,
// 72) and the parallel fit 2. The tsan lane races the concurrent training
// (ctest determinism_fit_lanes), so the dataset and network stay tiny.
TEST(Determinism, FitAndFineTuneAreLaneCountInvariant) {
  exec::ExecContext serial(1);
  exec::ExecContext wide(8);
  const Dataset dataset = generate_dataset(small_spec(), serial);
  const std::vector<std::size_t> idx = all_indices(dataset);
  const std::string path = testing::TempDir() + "gp_determinism_fit_lanes.gpsy";
  const auto saved_bytes = [&](GesturePrintSystem& system) {
    system.save(path);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };

  for (const IdentificationMode mode :
       {IdentificationMode::kSerialized, IdentificationMode::kParallel}) {
    GesturePrintConfig config;
    config.network = tiny_config();
    config.training.epochs = 2;
    config.training.batch_size = 6;
    config.mode = mode;
    const auto run = [&](exec::ExecContext& ctx) {
      GesturePrintSystem system(config);
      system.fit(dataset, idx, ctx);
      std::string fitted = saved_bytes(system);
      system.fine_tune(dataset, idx, /*epochs=*/1, 5e-4, ctx);
      system.fine_tune_user_heads(dataset, idx, /*epochs=*/1, 5e-4, ctx);
      return std::make_pair(std::move(fitted), saved_bytes(system));
    };
    const auto [fit_1, tuned_1] = run(serial);
    const auto [fit_8, tuned_8] = run(wide);
    const char* name = mode == IdentificationMode::kSerialized ? "serialized" : "parallel";
    EXPECT_TRUE(fit_1 == fit_8) << name << ": fit bytes depend on the lane count";
    EXPECT_TRUE(tuned_1 == tuned_8) << name << ": fine-tuned bytes depend on the lane count";
    EXPECT_FALSE(fit_1 == tuned_1) << name << ": fine-tuning changed nothing";
  }
}

}  // namespace
}  // namespace gp
