// Reentrant inference (DESIGN.md §4, §11): the sharded const path
// (predict_logits_into → infer_into on per-lane workspaces) against the
// layered training forward in inference mode, bit for bit, for unfused,
// fused f32 and int8 models, at several lane counts and batch sizes, after
// training and after a head widening. One set of lanes serves every model
// and call, so a workspace that leaked state between shapes would show.
// Runs in the tsan lane: the lanes share one model's weights.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"
#include "nn/optimizer.hpp"

namespace gp {
namespace {

FeaturizedSample random_sample(Rng& rng, std::size_t points = 32) {
  FeaturizedSample s;
  s.num_points = points;
  s.dims = 7;
  const double offset = rng.uniform(-0.3, 0.3);
  for (std::size_t i = 0; i < points; ++i) {
    const auto x = static_cast<float>(offset + rng.gaussian(0.0, 0.1));
    const auto y = static_cast<float>(rng.gaussian(0.0, 0.1));
    const auto z = static_cast<float>(rng.gaussian(0.0, 0.1));
    s.positions.insert(s.positions.end(), {x, y, z});
    s.features.insert(s.features.end(),
                      {x, y, z, static_cast<float>(rng.gaussian(0.0, 0.5)),
                       static_cast<float>(rng.uniform()), static_cast<float>(rng.uniform()),
                       0.6f});
  }
  return s;
}

GesIDNetConfig tiny_config(std::size_t classes) {
  GesIDNetConfig config;
  config.num_classes = classes;
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

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.vec().data(), b.vec().data(), a.numel() * sizeof(float)), 0);
}

struct Harness {
  std::vector<FeaturizedSample> samples;
  exec::ExecContext ctx1{1};
  exec::ExecContext ctx2{2};
  exec::ExecContext ctx4{4};
  std::vector<InferLane> lanes;  ///< shared by every model and call

  void check(GesIDNet& model) {
    nn::Tensor out;
    for (const std::size_t n : {1, 3, 7, 48}) {
      const nn::Tensor expected = model.forward(make_batch(samples, 0, n), /*training=*/false);
      const std::span<const FeaturizedSample> rows(samples.data(), n);
      for (exec::ExecContext* ctx : {&ctx1, &ctx2, &ctx4}) {
        for (const std::size_t batch_size : {4, 64}) {
          SCOPED_TRACE("samples " + std::to_string(n) + ", lanes " +
                       std::to_string(ctx->threads()) + ", batch " +
                       std::to_string(batch_size));
          predict_logits_into(model, rows, out, lanes, *ctx, batch_size);
          expect_bitwise_equal(out, expected);
        }
      }
    }
  }

  /// The unfused model, then fused f32 and int8 copies of it.
  void check_all_forms(GesIDNet& model) {
    {
      SCOPED_TRACE("unfused");
      check(model);
    }
    for (const nn::QuantMode mode : {nn::QuantMode::kOff, nn::QuantMode::kInt8}) {
      SCOPED_TRACE(mode == nn::QuantMode::kInt8 ? "fused int8" : "fused f32");
      std::unique_ptr<PointCloudClassifier> copy = model.clone();
      auto& fused = dynamic_cast<GesIDNet&>(*copy);
      fused.fuse_for_inference(mode);
      check(fused);
    }
  }
};

TEST(Infer, ShardedMatchesForward) {
  Rng rng(0x1F3);
  Harness h;
  for (int i = 0; i < 48; ++i) h.samples.push_back(random_sample(rng));
  GesIDNet model(tiny_config(3), rng);
  {
    SCOPED_TRACE("fresh");
    h.check_all_forms(model);
  }

  // A training step moves the weights and the batch-norm running stats.
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 3);
  nn::Adam adam(model.parameters(), 1e-2);
  (void)model.train_step(make_batch(h.samples, 0, 16), labels);
  adam.step();
  {
    SCOPED_TRACE("after train_step");
    h.check_all_forms(model);
  }

  // A wider head changes the logit width the shared lanes see.
  std::unique_ptr<GesIDNet> wide = model.widen_head(4, 7);
  {
    SCOPED_TRACE("after widen_head");
    h.check_all_forms(*wide);
  }
}

}  // namespace
}  // namespace gp
