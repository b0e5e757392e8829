#include "layers.hpp"

#include <algorithm>

#include "cluster/wire.hpp"
#include "common/rng.hpp"
#include "gesidnet/batch.hpp"
#include "gesidnet/trainer.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/registry.hpp"
#include "stats.hpp"
#include "system/gestureprint.hpp"

namespace pb {
namespace {

/// Cleaned clouds of every segment of the pool, in stream/ordinal order.
std::vector<gp::GestureCloud> pool_clouds(const Inputs& in) {
  const gp::Preprocessor preprocessor;
  std::vector<gp::GestureCloud> clouds;
  for (const Stream& s : in.streams) {
    for (const gp::GestureSegment& seg : gp::GestureSegmenter::segment_all(
             s.recording.frames, gp::PreprocessorParams{}.segmentation)) {
      clouds.push_back(preprocessor.process_segment(seg.frames));
    }
  }
  return clouds;
}

/// `rounds` featurizations of each of the first `count` clouds (the TTA rows
/// a serve flush of `count` segments carries).
std::vector<gp::FeaturizedSample> tta_rows(const Inputs& in,
                                           const std::vector<gp::GestureCloud>& clouds,
                                           std::size_t count) {
  std::vector<gp::FeaturizedSample> rows;
  gp::Rng rng(in.seed, 0x7A7A);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t r = 0; r < in.config.eval_rounds; ++r) {
      rows.push_back(gp::featurize(clouds[i % clouds.size()], in.config.prep.features, rng));
    }
  }
  return rows;
}

/// Median of `reps` timed calls of `fn`, in ms.
template <typename Fn>
double median_ms(int reps, SpanLog& spans, const char* name, Fn&& fn) {
  fn();  // warm-up
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    Scope scope(spans, name);
    fn();
    samples.push_back(ns_to_ms(scope.stop()));
  }
  return median(samples).value;
}

}  // namespace

void replay_pipeline(const Context& ctx, LayerLog& out) {
  const Inputs& in = *ctx.inputs;
  SpanLog& spans = *ctx.spans;
  Scope layer(spans, "replay.pipeline");

  // Segmenter: per-frame push cost over the whole pool, median of 3 passes.
  std::vector<double> per_frame_us;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t ns = 0;
    std::size_t frames = 0;
    for (const Stream& s : in.streams) {
      gp::GestureSegmenter segmenter(gp::PreprocessorParams{}.segmentation);
      Scope scope(spans, "pipeline.segmenter_push");
      for (const gp::FrameCloud& f : s.recording.frames) {
        segmenter.push(f);
        segmenter.clear_completed();
      }
      ns += scope.stop();
      frames += s.recording.frames.size();
    }
    per_frame_us.push_back(ns_to_us(ns) / static_cast<double>(std::max<std::size_t>(frames, 1)));
  }
  out.values["pipeline.segment_us_per_frame"] = median(per_frame_us).value;

  const gp::Preprocessor preprocessor;
  gp::Rng rng(in.seed, 0xFEA7);
  gp::FeaturizeScratch scratch;
  gp::FeaturizedSample sample;
  std::size_t truth = 0, recalled = 0;
  for (const Stream& s : in.streams) {
    const auto segments =
        gp::GestureSegmenter::segment_all(s.recording.frames,
                                          gp::PreprocessorParams{}.segmentation);
    for (const gp::GestureSegment& seg : segments) {
      gp::GestureCloud cloud;
      {
        Scope scope(spans, "pipeline.process_segment");
        cloud = preprocessor.process_segment(seg.frames);
        out.add("pipeline.process_segment_ms", ns_to_ms(scope.stop()));
      }
      if (cloud.points.empty()) continue;
      for (std::size_t r = 0; r < in.config.eval_rounds; ++r) {
        Scope scope(spans, "pipeline.featurize_into");
        gp::featurize_into(cloud, in.config.prep.features, rng, scratch, sample);
        out.add("pipeline.featurize_us", ns_to_us(scope.stop()));
      }
    }
    for (const auto& [begin, end] : s.recording.truth_spans) {
      ++truth;
      const bool hit = std::any_of(segments.begin(), segments.end(), [&](const auto& seg) {
        return seg.start_frame <= end && seg.end_frame >= begin;
      });
      if (hit) ++recalled;
    }
  }
  out.values["pipeline.segment_recall"] =
      truth == 0 ? 0.0 : static_cast<double>(recalled) / static_cast<double>(truth);
}

void replay_gesidnet(const Context& ctx, gp::nn::QuantMode quant, LayerLog& out) {
  const Inputs& in = *ctx.inputs;
  SpanLog& spans = *ctx.spans;
  Scope layer(spans, "replay.gesidnet");
  const std::vector<gp::GestureCloud> clouds = pool_clouds(in);
  const std::vector<gp::FeaturizedSample> rows = tta_rows(in, clouds, 16);  // 48 rows
  const std::span<const gp::FeaturizedSample> all(rows);

  gp::GesturePrintSystem fused(in.config);
  fused.load(ctx.model_path);
  fused.fuse_for_inference(quant);
  gp::nn::Tensor logits;
  gp::GesIDNet& gesture = fused.gesture_model();
  out.values["gesidnet.gesture_fwd_ms_b1"] = median_ms(31, spans, "gesidnet.gesture_fwd_b1", [&] {
    gp::predict_logits_into(gesture, all.subspan(0, 1), logits);
  });
  out.values["gesidnet.gesture_fwd_ms_per_row_b48"] =
      median_ms(11, spans, "gesidnet.gesture_fwd_b48",
                [&] { gp::predict_logits_into(gesture, all, logits); }) /
      static_cast<double>(rows.size());
  gp::GesIDNet* user = nullptr;
  for (std::size_t g = 0; g < fused.num_user_models() && user == nullptr; ++g) {
    user = fused.user_model(g);
  }
  out.values["gesidnet.user_fwd_ms_b1"] =
      user == nullptr ? 0.0 : median_ms(31, spans, "gesidnet.user_fwd_b1", [&] {
        gp::predict_logits_into(*user, all.subspan(0, 1), logits);
      });

  gp::GesturePrintSystem unfused(in.config);
  unfused.load(ctx.model_path);
  gp::BatchedCloud one;
  gp::make_batch(all, 0, 1, one);
  out.values["gesidnet.features_ms_b1"] = median_ms(31, spans, "gesidnet.extract_features_b1", [&] {
    (void)unfused.gesture_model().extract_features(one);
  });
}

void replay_classify(const Context& ctx, LayerLog& out) {
  const Inputs& in = *ctx.inputs;
  SpanLog& spans = *ctx.spans;
  Scope layer(spans, "replay.system");
  const std::vector<gp::GestureCloud> clouds = pool_clouds(in);
  gp::GesturePrintSystem system(in.config);
  system.load(ctx.model_path);
  const std::size_t n = std::min<std::size_t>(clouds.size(), 64);
  for (std::size_t i = 0; i < n; ++i) {
    Scope scope(spans, "system.classify");
    (void)system.classify(clouds[i]);
    out.add("system.classify_ms", ns_to_ms(scope.stop()));
  }
}

void replay_wire(const Context& ctx, const std::vector<gp::serve::ServeResult>& answers,
                 LayerLog& out) {
  const Inputs& in = *ctx.inputs;
  SpanLog& spans = *ctx.spans;
  Scope layer(spans, "replay.wire");
  std::vector<double> encode_us;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t frames = 0;
    Scope scope(spans, "cluster.wire_encode_frame");
    for (std::size_t s = 0; s < in.streams.size(); ++s) {
      for (const gp::FrameCloud& f : in.streams[s].recording.frames) {
        (void)gp::cluster::encode_wire_frame(s + 1, f);
        ++frames;
      }
    }
    encode_us.push_back(ns_to_us(scope.stop()) /
                        static_cast<double>(std::max<std::size_t>(frames, 1)));
  }
  out.values["cluster.wire_encode_frame_us"] = median(encode_us).value;

  // Results travel in pump-sized batches; 16 is the serve batch_max.
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < answers.size(); i += 16) {
    const std::vector<gp::serve::ServeResult> batch(
        answers.begin() + static_cast<std::ptrdiff_t>(i),
        answers.begin() + static_cast<std::ptrdiff_t>(std::min(i + 16, answers.size())));
    payloads.push_back(gp::cluster::encode_wire_results(batch));
  }
  if (payloads.empty()) payloads.push_back(gp::cluster::encode_wire_results({}));
  std::vector<double> decode_us;
  for (int pass = 0; pass < 3; ++pass) {
    Scope scope(spans, "cluster.wire_decode_results");
    for (const std::string& p : payloads) (void)gp::cluster::decode_wire_results(p);
    decode_us.push_back(ns_to_us(scope.stop()) / static_cast<double>(payloads.size()));
  }
  out.values["cluster.wire_decode_results_us"] = median(decode_us).value;
}

void replay_publish(const Context& ctx, gp::nn::QuantMode quant, int times, LayerLog& out) {
  SpanLog& spans = *ctx.spans;
  gp::serve::ModelRegistry registry(ctx.inputs->config);
  for (int i = 0; i < times; ++i) {
    Scope scope(spans, "registry.publish_file");
    const bool ok = registry.publish_file(ctx.model_path, quant).has_value();
    out.add("registry.publish_ms", ns_to_ms(scope.stop()));
    if (!ok) out.values["registry.publish_failures"] += 1.0;
  }
}

RunResult replay_serve(const Context& ctx, gp::nn::QuantMode quant) {
  gp::serve::ModelRegistry registry(ctx.inputs->config);
  RunResult run;
  if (!registry.publish_file(ctx.model_path, quant)) {
    run.publish_failures = 1;
    return run;
  }
  Context one_pass = ctx;
  one_pass.seconds = 1e-9;
  Scope layer(*ctx.spans, "replay.serve");
  return run_backlog(one_pass, registry);
}

RunResult replay_cluster(const Context& ctx, double& spawn_ms) {
  Scope layer(*ctx.spans, "replay.cluster");
  Scope spawn(*ctx.spans, "cluster.spawn");
  gp::cluster::Cluster cluster(cluster_config(*ctx.inputs, ctx.model_path));
  spawn_ms = ns_to_ms(spawn.stop());
  Context one_pass = ctx;
  one_pass.seconds = 1e-9;
  return run_cluster(one_pass, cluster, 1);
}

}  // namespace pb
