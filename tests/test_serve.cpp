// gp::serve tests (DESIGN.md §8): per-session determinism across thread and
// shard counts, micro-batch composition independence, typed overload
// shedding with bounded queues, RCU hot-swap audit, typed refusal of a
// legacy GPS2 model file, fused-vs-unfused inference equivalence, a
// GP_FAULTS-style soak with zero uncaught exceptions, the event tally
// agreeing across its three views, and the shared decision path
// (decide_batch) deciding a batch of many exactly as batches of one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "exec/exec.hpp"
#include "faults/faults.hpp"
#include "gesidnet/trainer.hpp"
#include "health/events.hpp"
#include "obs/metrics.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace gp {
namespace {

/// Shared world: one small trained + saved system and a few client streams,
/// built once for the whole binary (training dominates this file's runtime).
struct ServeWorld {
  GesturePrintConfig config;
  std::string model_path;
  DatasetSpec spec;
  std::vector<ContinuousRecording> streams;  ///< per-session recordings
};

const ServeWorld& world() {
  static const ServeWorld* w = [] {
    auto* out = new ServeWorld();
    DatasetScale scale;
    scale.max_users = 3;
    scale.reps = 8;
    out->spec = gestureprint_spec(1, scale);
    out->spec.gestures.resize(3);
    const Dataset dataset = generate_dataset(out->spec);

    out->config.training.epochs = 6;
    out->config.training.batch_size = 16;
    out->config.prep.augmentation.copies = 2;
    out->config.abstain_margin = 0.05;

    GesturePrintSystem system(out->config);
    Rng split_rng(3, 1);
    system.fit(dataset,
               stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    out->model_path = testing::TempDir() + "gp_serve_model.gpsy";
    system.save(out->model_path);

    const std::vector<std::vector<int>> scripts{{0, 2, 1}, {1, 0, 2}, {2, 1, 0}};
    for (std::size_t s = 0; s < scripts.size(); ++s) {
      out->streams.push_back(generate_recording(out->spec, s % out->spec.num_users,
                                                scripts[s], 0x5E17E + s));
    }
    return out;
  }();
  return *w;
}

serve::ServeConfig base_config(std::size_t shards) {
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = shards;
  sc.batch_wait_us = 0;  // flush every pump: deterministic batching for tests
  return sc;
}

/// Streams `session_ids[i]` ← streams[i] interleaved frame-by-frame through
/// a fresh Server and returns all results sorted by (session, ordinal).
std::vector<serve::ServeResult> run_stream(const serve::ServeConfig& sc,
                                           serve::ModelRegistry& registry,
                                           const std::vector<std::uint64_t>& session_ids,
                                           exec::ExecContext& ctx) {
  serve::Server server(sc, registry, ctx);
  const auto& streams = world().streams;
  std::size_t max_frames = 0;
  for (std::size_t i = 0; i < session_ids.size(); ++i) {
    max_frames = std::max(max_frames, streams[i].frames.size());
  }
  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t i = 0; i < session_ids.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      EXPECT_EQ(server.push_frame(session_ids[i], streams[i].frames[f]),
                serve::Admission::kAccepted);
    }
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
  std::sort(results.begin(), results.end(), [](const auto& a, const auto& b) {
    return a.session_id != b.session_id ? a.session_id < b.session_id
                                        : a.segment_ordinal < b.segment_ordinal;
  });
  return results;
}

void expect_bitwise_equal(const std::vector<serve::ServeResult>& a,
                          const std::vector<serve::ServeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session_id, b[i].session_id);
    EXPECT_EQ(a[i].segment_ordinal, b[i].segment_ordinal);
    EXPECT_EQ(a[i].gesture, b[i].gesture);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].abstained, b[i].abstained);
    EXPECT_EQ(a[i].quality_rejected, b[i].quality_rejected);
    EXPECT_EQ(a[i].gesture_margin, b[i].gesture_margin);  // bitwise doubles
    EXPECT_EQ(a[i].user_margin, b[i].user_margin);
  }
}

// Per-session results must be a pure function of (frames, serve seed,
// session id) — never of GP_THREADS or the shard count.
TEST(Serve, DeterministicAcrossThreadsAndShards) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  const std::vector<std::uint64_t> ids{1, 2, 3};

  std::vector<serve::ServeResult> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      exec::ExecContext ctx(threads);
      auto results = run_stream(base_config(shards), registry, ids, ctx);
      ASSERT_GE(results.size(), ids.size());  // every stream completed segments
      if (reference.empty()) {
        reference = std::move(results);
      } else {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        expect_bitwise_equal(reference, results);
      }
    }
  }
}

// A session's answers must not depend on which other sessions' segments
// shared its micro-batches (per-sample batch-composition independence).
TEST(Serve, BatchCompositionIndependent) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  exec::ExecContext ctx(2);

  auto alone = run_stream(base_config(2), registry, {1}, ctx);
  auto crowd = run_stream(base_config(2), registry, {1, 2, 3}, ctx);
  crowd.erase(std::remove_if(crowd.begin(), crowd.end(),
                             [](const serve::ServeResult& r) { return r.session_id != 1; }),
              crowd.end());
  expect_bitwise_equal(alone, crowd);
}

// Bounded ingress queues shed with a typed rejection, never grow past cap,
// and the shed tally is observable.
TEST(Serve, OverloadShedsTypedAndBounded) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  serve::ServeConfig sc = base_config(1);
  sc.queue_cap = 4;
  exec::ExecContext ctx(1);
  serve::Server server(sc, registry, ctx);

  const FrameSequence& frames = world().streams[0].frames;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t f = 0; f < 50 && f < frames.size(); ++f) {
    const serve::Admission verdict = server.push_frame(7, frames[f]);
    if (verdict == serve::Admission::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(verdict, serve::Admission::kRejectedQueueFull);
      ++rejected;
    }
    EXPECT_LE(server.sessions().queue_depth(0), sc.queue_cap);
  }
  EXPECT_EQ(accepted, sc.queue_cap);
  EXPECT_GT(rejected, 0u);

  const serve::SessionManager::Stats stats = server.session_stats();
  EXPECT_EQ(stats.frames_admitted, accepted);
  EXPECT_EQ(stats.frames_rejected, rejected);
  EXPECT_NO_THROW((void)server.drain());  // shedding degraded, nothing died
}

// Mid-stream publish: versions in the result stream are monotonic, the swap
// is batch-atomic (no flush mixes versions), and nothing is dropped.
TEST(Serve, HotSwapMidStreamIsAuditedAndLossless) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  exec::ExecContext ctx(2);
  const std::vector<std::uint64_t> ids{1, 2};

  // Reference run without a swap, to pin the expected result count.
  const std::size_t expected = run_stream(base_config(2), registry, ids, ctx).size();
  ASSERT_EQ(registry.version(), 1u);

  serve::Server server(base_config(2), registry, ctx);
  const auto& streams = world().streams;
  std::size_t max_frames = std::max(streams[0].frames.size(), streams[1].frames.size());
  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    if (f == max_frames / 2) {
      // Same weights, new generation: versions must flip, answers must not.
      ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      (void)server.push_frame(ids[i], streams[i].frames[f]);
    }
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));

  EXPECT_EQ(results.size(), expected);  // hot-swap dropped nothing
  EXPECT_EQ(registry.version(), 2u);
  std::uint64_t last = 0;
  bool saw_v2 = false;
  for (const serve::ServeResult& r : results) {  // flush order
    EXPECT_GE(r.model_version, last);
    EXPECT_GE(r.model_version, 1u);
    last = r.model_version;
    saw_v2 = saw_v2 || r.model_version == 2;
  }
  EXPECT_TRUE(saw_v2);
}

// Quantized hot-swap: an int8 snapshot published mid-stream (GP_QUANT-style
// rollout) must be as lossless and audited as an f32→f32 swap. Every result
// carries the model_version that answered it, the registry's served snapshot
// flips to quant == kInt8, and post-swap segments keep producing typed
// answers — int8 changes the kernel, never the serving contract.
TEST(Serve, QuantizedHotSwapMidStreamIsAudited) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path, nn::QuantMode::kOff).has_value());
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->quant, nn::QuantMode::kOff);
  exec::ExecContext ctx(2);
  const std::vector<std::uint64_t> ids{1, 2};

  const std::size_t expected = run_stream(base_config(2), registry, ids, ctx).size();
  ASSERT_EQ(registry.version(), 1u);

  serve::Server server(base_config(2), registry, ctx);
  const auto& streams = world().streams;
  std::size_t max_frames = std::max(streams[0].frames.size(), streams[1].frames.size());
  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    if (f == max_frames / 2) {
      // Same weights, quantized kernel: the swap must be announced via
      // model_version, not detectable via drops or exceptions.
      ASSERT_TRUE(
          registry.publish_file(world().model_path, nn::QuantMode::kInt8).has_value());
      ASSERT_NE(registry.current(), nullptr);
      EXPECT_EQ(registry.current()->quant, nn::QuantMode::kInt8);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      (void)server.push_frame(ids[i], streams[i].frames[f]);
    }
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));

  EXPECT_EQ(results.size(), expected);  // quantized hot-swap dropped nothing
  EXPECT_EQ(registry.version(), 2u);
  std::uint64_t last = 0;
  bool saw_quantized = false;
  for (const serve::ServeResult& r : results) {
    EXPECT_GE(r.model_version, last);  // flush order: versions never regress
    EXPECT_GE(r.model_version, 1u);
    last = r.model_version;
    if (r.model_version == 2) {
      saw_quantized = true;
      EXPECT_TRUE(r.gesture >= 0 || r.gesture == kAbstain);
      EXPECT_TRUE(r.user >= 0 || r.user == kAbstain);
    }
  }
  EXPECT_TRUE(saw_quantized) << "no segment was answered by the int8 snapshot";
}

// A failed publish must never disturb the served snapshot.
TEST(Serve, FailedPublishKeepsServing) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  EXPECT_FALSE(registry.publish_file(testing::TempDir() + "gp_serve_missing.gpsy"));
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);
}

/// Writes the world model re-tagged with the pre-GPS3 header ("GPS2", the
/// format that also stored int8 tables) under a valid checksum trailer, so
/// only the header can refuse it.
std::string write_gps2_file(const std::string& name) {
  std::ifstream in(world().model_path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  blob.resize(blob.size() - 8);  // drop the checksum trailer
  EXPECT_EQ(blob.substr(0, 4), "GPS3");
  blob.replace(0, 4, "GPS2");
  const std::uint64_t digest = fnv::hash_string(blob);
  for (int i = 0; i < 8; ++i) blob.push_back(static_cast<char>((digest >> (8 * i)) & 0xFF));
  const std::string path = testing::TempDir() + name;
  std::filesystem::remove(path + ".quarantine");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << blob;
  return path;
}

// A system file from before the int8 tables moved to fuse time is refused
// at its header, typed: load throws, try_load quarantines, and a publish of
// it keeps the current snapshot serving.
TEST(Serve, LegacyGps2FileIsRefusedTyped) {
  const std::string path = write_gps2_file("gp_serve_legacy.gpsy");
  GesturePrintSystem system(world().config);
  EXPECT_THROW(system.load(path), SerializationError);

  EXPECT_FALSE(system.try_load(path));
  EXPECT_FALSE(system.fitted());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));

  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  EXPECT_FALSE(registry.publish_file(write_gps2_file("gp_serve_legacy.gpsy")).has_value());
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);
}

// Before the first publish, segments get typed no-model refusals — never
// exceptions, never silent drops.
TEST(Serve, NoModelPublishedGivesTypedRefusals) {
  serve::ModelRegistry registry(world().config);  // nothing published
  exec::ExecContext ctx(1);
  std::vector<serve::ServeResult> results;
  ASSERT_NO_THROW(results = run_stream(base_config(1), registry, {1}, ctx));
  ASSERT_FALSE(results.empty());
  for (const serve::ServeResult& r : results) {
    EXPECT_EQ(r.gesture, kAbstain);
    EXPECT_EQ(r.user, kAbstain);
    EXPECT_TRUE(r.abstained);
    EXPECT_EQ(r.model_version, 0u);
  }
}

// The fused (inference-only) path must agree with the unfused offline path:
// same argmax, probabilities within float-accumulation tolerance.
TEST(Serve, FusedMatchesUnfusedLogits) {
  GesturePrintSystem unfused(world().config);
  ASSERT_TRUE(unfused.try_load(world().model_path));
  GesturePrintSystem fused(world().config);
  ASSERT_TRUE(fused.try_load(world().model_path));
  fused.fuse_for_inference();

  // Deterministic variants from the shared streams' first segments.
  const Dataset dataset = generate_dataset(world().spec);
  std::vector<FeaturizedSample> variants;
  for (std::size_t i = 0; i < 6; ++i) {
    Rng rng = exec::child_rng(0xF05EDu, i);
    variants.push_back(
        featurize(dataset.samples[i * 7].cloud, world().config.prep.features, rng));
  }
  const nn::Tensor a = predict_logits(unfused.gesture_model(), variants);
  const nn::Tensor b = predict_logits(fused.gesture_model(), variants);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double max_a = -1e30, max_b = -1e30;
    std::size_t arg_a = 0, arg_b = 0;
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a.at(r, c), b.at(r, c), 1e-3) << "row " << r << " col " << c;
      if (a.at(r, c) > max_a) { max_a = a.at(r, c); arg_a = c; }
      if (b.at(r, c) > max_b) { max_b = b.at(r, c); arg_b = c; }
    }
    EXPECT_EQ(arg_a, arg_b) << "argmax diverged on row " << r;
  }
}

// A fused system refuses the training/serialisation paths with typed errors.
TEST(Serve, FusedSystemRefusesTrainingPaths) {
  GesturePrintSystem system(world().config);
  ASSERT_TRUE(system.try_load(world().model_path));
  system.fuse_for_inference();
  EXPECT_THROW(system.save(testing::TempDir() + "gp_serve_refused.gpsy"), Error);
}

// GP_FAULTS-style soak: every session behind a severely degraded link; the
// server must produce only typed answers — zero uncaught exceptions.
TEST(Serve, FaultSoakZeroUncaughtExceptions) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  serve::ServeConfig sc = base_config(2);
  sc.session_faults = faults::FaultConfig::mixed(1.0);
  exec::ExecContext ctx(2);

  std::vector<serve::ServeResult> results;
  ASSERT_NO_THROW(results = run_stream(sc, registry, {1, 2, 3}, ctx));
  for (const serve::ServeResult& r : results) {
    EXPECT_TRUE(r.gesture >= 0 || r.gesture == kAbstain);
    EXPECT_TRUE(r.user >= 0 || r.user == kAbstain);
  }
  // And the faulty run is itself deterministic (per-session fault seeds).
  std::vector<serve::ServeResult> again;
  ASSERT_NO_THROW(again = run_stream(sc, registry, {1, 2, 3}, ctx));
  expect_bitwise_equal(results, again);

  // Quantized cell of the soak: the int8 kernel behind the same degraded
  // links must uphold the identical typed-answers and determinism contract.
  serve::ModelRegistry quant_registry(world().config);
  ASSERT_TRUE(
      quant_registry.publish_file(world().model_path, nn::QuantMode::kInt8).has_value());
  std::vector<serve::ServeResult> qresults;
  ASSERT_NO_THROW(qresults = run_stream(sc, quant_registry, {1, 2, 3}, ctx));
  for (const serve::ServeResult& r : qresults) {
    EXPECT_TRUE(r.gesture >= 0 || r.gesture == kAbstain);
    EXPECT_TRUE(r.user >= 0 || r.user == kAbstain);
  }
  std::vector<serve::ServeResult> qagain;
  ASSERT_NO_THROW(qagain = run_stream(sc, quant_registry, {1, 2, 3}, ctx));
  expect_bitwise_equal(qresults, qagain);
}

// Concurrent producers against a pumping server: admission is thread-safe
// (this test is part of the tsan-smoke lane).
TEST(Serve, ConcurrentPushersUnderPump) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  serve::ServeConfig sc = base_config(4);
  sc.queue_cap = 64;
  exec::ExecContext ctx(2);
  serve::Server server(sc, registry, ctx);

  std::vector<std::thread> producers;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    producers.emplace_back([&, id] {
      const FrameSequence& frames = world().streams[id - 1].frames;
      for (const FrameCloud& frame : frames) (void)server.push_frame(id, frame);
    });
  }
  std::vector<serve::ServeResult> results;
  for (int i = 0; i < 200; ++i) {
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (std::thread& t : producers) t.join();
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));

  const serve::SessionManager::Stats stats = server.session_stats();
  EXPECT_GT(stats.frames_admitted, 0u);
  EXPECT_EQ(server.batch_stats().segments, results.size());
}

// ---- the shared decision path (decide_batch) -------------------------------

/// One trained + saved system per identification mode for the decide_batch
/// battery. The serialized one is fitted without gesture 2 and then
/// fine-tuned on every gesture: the gesture model learns gesture 2 but it
/// keeps no user-ID model, so the null route is reachable.
struct DecisionWorld {
  std::string model_path[2];  ///< [serialized, parallel]
  std::vector<FeaturizedSample> rows;
  std::vector<std::size_t> counts;  ///< 1..3 TTA variants per segment
};

GesturePrintConfig decision_config(IdentificationMode mode) {
  GesturePrintConfig config = world().config;
  config.mode = mode;
  config.training.epochs = 3;
  return config;
}

const DecisionWorld& decision_world() {
  static const DecisionWorld* w = [] {
    auto* out = new DecisionWorld();
    const Dataset dataset = generate_dataset(world().spec);
    Rng split_rng(5, 1);
    const Split split = stratified_split(dataset.gesture_labels(), 0.3, split_rng);
    std::vector<std::size_t> without_2;
    for (const std::size_t i : split.train) {
      if (dataset.samples[i].gesture != 2) without_2.push_back(i);
    }
    for (const IdentificationMode mode :
         {IdentificationMode::kSerialized, IdentificationMode::kParallel}) {
      const bool serialized = mode == IdentificationMode::kSerialized;
      GesturePrintSystem system(decision_config(mode));
      if (serialized) {
        system.fit(dataset, without_2);
        system.fine_tune(dataset, split.train, 3, 2e-3);
      } else {
        system.fit(dataset, split.train);
      }
      const std::string path =
          testing::TempDir() + (serialized ? "gp_decide_ser.gpsy" : "gp_decide_par.gpsy");
      system.save(path);
      out->model_path[serialized ? 0 : 1] = path;
    }
    for (std::size_t k = 0; k < split.test.size(); ++k) {
      out->counts.push_back(1 + k % 3);
      for (std::size_t r = 0; r < out->counts.back(); ++r) {
        Rng rng = exec::child_rng(0xDEC1DEu + k, r);
        out->rows.push_back(
            featurize(dataset.samples[split.test[k]].cloud, world().config.prep.features, rng));
      }
    }
    return out;
  }();
  return *w;
}

std::vector<InferenceResult> decide(GesturePrintSystem& system,
                                    std::span<const FeaturizedSample> rows,
                                    std::span<const std::size_t> counts, double margin) {
  DecisionScratch scratch;
  mem::SlotVector<InferenceResult> out;
  decide_batch(system, rows, counts, margin, scratch, out, exec::ExecContext::global());
  return {out.begin(), out.end()};
}

/// A margin that, on the margin-0 decisions `open`, fires the gesture gate
/// on some segment, the user gate on another, and (when `need_null_route`)
/// leaves a null-routed segment answered. Returns 0 when none exists.
double pick_margin(const std::vector<InferenceResult>& open, bool need_null_route) {
  std::vector<double> candidates;
  for (const InferenceResult& d : open) {
    candidates.push_back(d.gesture_margin);
    candidates.push_back(d.user_margin);
  }
  std::sort(candidates.begin(), candidates.end());
  for (const double m : candidates) {
    bool gesture_gate = false, user_gate = false, null_route = !need_null_route;
    for (const InferenceResult& d : open) {
      if (d.gesture_margin < m) {
        gesture_gate = true;
      } else if (d.user_probabilities.empty()) {
        null_route = true;
      } else if (d.user_margin < m) {
        user_gate = true;
      }
    }
    if (gesture_gate && user_gate && null_route) return m;
  }
  return 0.0;
}

void expect_bitwise_equal(const InferenceResult& a, const InferenceResult& b) {
  EXPECT_EQ(a.gesture, b.gesture);
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.abstained, b.abstained);
  EXPECT_EQ(a.gesture_margin, b.gesture_margin);  // bitwise doubles
  EXPECT_EQ(a.user_margin, b.user_margin);
  EXPECT_EQ(a.gesture_probabilities, b.gesture_probabilities);
  EXPECT_EQ(a.user_probabilities, b.user_probabilities);
}

// classify() (a batch of one) and the serve batcher (a batch of many) share
// decide_batch: a segment decided inside a batch must get bitwise the answer
// it gets alone — in both identification modes, with the margin armed so
// both abstain branches and (serialized) the null route are exercised, for
// the unfused models classify() runs and the fused ones serve runs.
TEST(Decision, BatchOfManyMatchesBatchesOfOne) {
  const DecisionWorld& w = decision_world();
  for (const IdentificationMode mode :
       {IdentificationMode::kSerialized, IdentificationMode::kParallel}) {
    const bool serialized = mode == IdentificationMode::kSerialized;
    for (const bool fused : {false, true}) {
      SCOPED_TRACE(std::string(serialized ? "serialized" : "parallel") +
                   (fused ? " fused" : " unfused"));
      GesturePrintSystem system(decision_config(mode));
      ASSERT_TRUE(system.try_load(w.model_path[serialized ? 0 : 1]));
      if (fused) system.fuse_for_inference();

      const double margin = pick_margin(decide(system, w.rows, w.counts, 0.0), serialized);
      ASSERT_GT(margin, 0.0) << "no margin exercises every decision branch";
      const std::vector<InferenceResult> batch = decide(system, w.rows, w.counts, margin);
      ASSERT_EQ(batch.size(), w.counts.size());
      std::size_t gesture_gate = 0, user_gate = 0, null_route = 0;
      std::size_t row = 0;
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const InferenceResult& d = batch[k];
        gesture_gate += d.gesture == kAbstain;
        user_gate += d.gesture >= 0 && d.user == kAbstain;
        null_route += d.gesture >= 0 && d.user == -1;
        const std::span<const FeaturizedSample> rows(w.rows.data() + row, w.counts[k]);
        const std::vector<InferenceResult> alone = decide(system, rows, {&w.counts[k], 1}, margin);
        SCOPED_TRACE("segment " + std::to_string(k));
        expect_bitwise_equal(d, alone.front());
        row += w.counts[k];
      }
      EXPECT_GT(gesture_gate, 0u);
      EXPECT_GT(user_gate, 0u);
      EXPECT_EQ(null_route > 0, serialized);
    }
  }
}

// ---- the event tally --------------------------------------------------------

/// Rejects every recognised segment as novel, so the novelty event fires
/// without the gp::enroll service behind it.
class RejectAllNoveltyHook : public serve::EnrollmentHook {
 public:
  bool gate(const serve::PendingSegment&, const serve::ServeResult&) override { return true; }
  void close_tick(std::uint64_t) override {}
};

struct TallyRun {
  health::EventCounts totals;                        ///< Server::stats()
  health::EventCounts window;                        ///< the health SLO window
  std::array<std::uint64_t, health::kEventCount> counters{};  ///< gp.serve.* deltas
  std::uint64_t ticks = 0;
};

/// Drives one Server through the events of health::kEvents: a stream
/// answered before any publish (no-model), streams behind degraded links
/// (fault drops) and a strict point guard (quality rejects) with a novelty
/// hook armed, and a burst past queue_cap (queue-full rejects). Abstentions,
/// batches and segments come along.
TallyRun run_every_event(bool health_on) {
  obs::set_metrics_enabled(true);
  std::array<std::uint64_t, health::kEventCount> before{};
  for (std::size_t i = 0; i < health::kEventCount; ++i) {
    before[i] = obs::counter(health::kEvents[i].counter).value();
  }

  serve::ModelRegistry registry(world().config);  // published mid-run
  serve::ServeConfig sc = base_config(1);
  sc.queue_cap = 4;
  sc.session_faults = faults::FaultConfig::mixed(0.3);
  // A point guard strict enough that some segments of these streams fail it.
  sc.preprocess.min_points = 200;
  sc.enroll.enabled = true;  // biometrics for the novelty gate
  sc.health.enabled = health_on;
  sc.health.flightrec = false;
  sc.health.slo = health::SloSpec::parse("p99_ms<100000,window=4096t");
  exec::ExecContext ctx(1);
  serve::Server server(sc, registry, ctx);
  RejectAllNoveltyHook hook;
  server.set_enrollment_hook(&hook);

  const auto& streams = world().streams;
  for (const FrameCloud& frame : streams[0].frames) {
    (void)server.push_frame(1, frame);
    (void)server.pump();
  }
  (void)server.drain();  // session 1's tail: still no model
  EXPECT_TRUE(registry.publish_file(world().model_path).has_value());

  std::size_t max_frames = 0;
  for (const ContinuousRecording& r : streams) max_frames = std::max(max_frames, r.frames.size());
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (f < streams[i].frames.size()) (void)server.push_frame(i + 2, streams[i].frames[f]);
    }
    (void)server.pump();
  }
  for (std::size_t f = 0; f < sc.queue_cap + 2; ++f) {
    (void)server.push_frame(9, streams[0].frames[f]);
  }
  (void)server.drain();

  TallyRun run;
  run.totals = server.stats();
  const health::HealthSnapshot snap = server.health_snapshot();
  run.window = snap.slo_window.counts;
  run.ticks = server.ticks();
  EXPECT_LE(run.ticks, sc.health.slo->window_ticks) << "the SLO window must span the run";
  if (health_on) {
    EXPECT_EQ(snap.slo_window.ticks, run.ticks);
  }
  for (std::size_t i = 0; i < health::kEventCount; ++i) {
    run.counters[i] = obs::counter(health::kEvents[i].counter).value() - before[i];
  }
  return run;
}

// Every event is counted once and folded per tick into three views: the
// Server totals, the health SLO window and the gp.serve.* counters. Looped
// over health::kEvents, so a new event is covered without touching this test.
TEST(Serve, EventTallyViewsAgree) {
  const TallyRun on = run_every_event(/*health_on=*/true);
  for (std::size_t i = 0; i < health::kEventCount; ++i) {
    const health::EventInfo& e = health::kEvents[i];
    const std::uint64_t total = on.totals.*e.member;
    EXPECT_GT(total, 0u) << e.name << " never happened";
    EXPECT_EQ(on.window.*e.member, total) << e.name;
    EXPECT_EQ(on.counters[i], total) << e.name << " (" << e.counter << ")";
  }

  // Health off: the same fates, the same totals and counters; the window is
  // empty because the monitor is inert.
  const TallyRun off = run_every_event(/*health_on=*/false);
  EXPECT_EQ(off.ticks, on.ticks);
  for (std::size_t i = 0; i < health::kEventCount; ++i) {
    const health::EventInfo& e = health::kEvents[i];
    EXPECT_EQ(off.totals.*e.member, on.totals.*e.member) << e.name;
    EXPECT_EQ(off.counters[i], on.counters[i]) << e.name;
    EXPECT_EQ(off.window.*e.member, 0u) << e.name;
  }
}

}  // namespace
}  // namespace gp
