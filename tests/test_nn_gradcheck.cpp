// Exact-vs-numeric gradient checks for every layer and for the composite
// blocks GesIDNet is assembled from (set abstraction, group-all, attention
// fusion). These are the strongest correctness guarantees in the NN stack:
// a wrong backward pass silently degrades every experiment, so each is
// verified against central finite differences.
#include <gtest/gtest.h>

#include "gesidnet/fusion.hpp"
#include "gesidnet/set_abstraction.hpp"
#include "nn/grad_check.hpp"
#include "nn/loss.hpp"

namespace gp {
namespace {

using nn::GradCheckResult;
using nn::Tensor;

Tensor random_input(std::size_t rows, std::size_t cols, Rng& rng, double scale = 1.0) {
  Tensor x(rows, cols);
  x.randn(rng, scale);
  return x;
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  nn::Linear layer(5, 7, rng);
  const GradCheckResult result = nn::grad_check(layer, random_input(4, 5, rng), true);
  EXPECT_TRUE(result.passed()) << "input err " << result.max_input_error << " param err "
                               << result.max_param_error;
}

TEST(GradCheck, ReLUAwayFromKink) {
  Rng rng(2);
  nn::ReLU layer;
  // Keep inputs away from zero where ReLU is non-differentiable.
  Tensor x = random_input(4, 6, rng, 1.0);
  for (auto& v : x.vec()) {
    if (std::fabs(v) < 0.05f) v = 0.2f;
  }
  const GradCheckResult result = nn::grad_check(layer, x, true);
  EXPECT_TRUE(result.passed()) << result.max_input_error;
}

TEST(GradCheck, BatchNormTraining) {
  Rng rng(3);
  nn::BatchNorm1d layer(4, rng);
  const GradCheckResult result =
      nn::grad_check(layer, random_input(8, 4, rng), true, 1e-3, 5e-2);
  EXPECT_TRUE(result.passed()) << "input err " << result.max_input_error << " param err "
                               << result.max_param_error;
}

TEST(GradCheck, BatchNormInference) {
  Rng rng(4);
  nn::BatchNorm1d layer(3, rng);
  // Populate running stats first.
  for (int i = 0; i < 10; ++i) layer.forward(random_input(16, 3, rng), true);
  const GradCheckResult result = nn::grad_check(layer, random_input(5, 3, rng), false);
  EXPECT_TRUE(result.passed()) << result.max_input_error;
}

TEST(GradCheck, SequentialMlp) {
  Rng rng(5);
  auto mlp = nn::make_mlp(4, {6, 5}, rng, /*batch_norm=*/false);
  const GradCheckResult result = nn::grad_check(*mlp, random_input(6, 4, rng), true);
  EXPECT_TRUE(result.passed()) << "input err " << result.max_input_error << " param err "
                               << result.max_param_error;
}

TEST(GradCheck, SequentialMlpWithBatchNorm) {
  Rng rng(6);
  auto mlp = nn::make_mlp(3, {5}, rng, /*batch_norm=*/true);
  const GradCheckResult result =
      nn::grad_check(*mlp, random_input(8, 3, rng), true, 1e-3, 5e-2);
  EXPECT_TRUE(result.passed(0.01)) << "input err " << result.max_input_error << " param err "
                                   << result.max_param_error;
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  // Direct check of dL/dlogits against finite differences of the scalar loss.
  Rng rng(7);
  Tensor logits = random_input(5, 4, rng, 2.0);
  const std::vector<int> labels{0, 3, 1, 2, 2};
  const nn::LossResult analytic = nn::softmax_cross_entropy(logits, labels);

  const auto loss_fn = [&labels](const Tensor& l) {
    return nn::softmax_cross_entropy(l, labels).loss;
  };
  const double err = nn::scalar_grad_check(loss_fn, logits, analytic.grad, 1e-3);
  EXPECT_LT(err, 2e-3);
}

// ---- composite GesIDNet blocks -------------------------------------------

// Wraps SetAbstraction as a Layer over its feature input (positions fixed)
// so the generic checker can drive it.
class SetAbstractionAdapter : public nn::Layer {
 public:
  SetAbstractionAdapter(SetAbstraction& sa, const Tensor& positions, std::size_t batch,
                        std::size_t num_points)
      : sa_(sa), positions_(positions), batch_(batch), num_points_(num_points) {}

  Tensor forward(const Tensor& input, bool training) override {
    BatchedCloud cloud;
    cloud.batch = batch_;
    cloud.num_points = num_points_;
    cloud.positions = positions_;
    cloud.features = input;
    return sa_.forward(cloud, training).features;
  }
  void infer(const Tensor& input, Tensor& out, nn::Workspace& ws) const override {
    BatchedCloud cloud;
    cloud.batch = batch_;
    cloud.num_points = num_points_;
    cloud.positions = positions_;
    cloud.features = input;
    BatchedCloud pooled;
    sa_.infer(cloud, pooled, ws);
    out = pooled.features;
  }
  Tensor backward(const Tensor& grad_output) override { return sa_.backward(grad_output); }
  std::vector<nn::Parameter*> parameters() override { return sa_.parameters(); }

 private:
  SetAbstraction& sa_;
  Tensor positions_;
  std::size_t batch_;
  std::size_t num_points_;
};

TEST(GradCheck, SetAbstraction) {
  Rng rng(8);
  constexpr std::size_t batch = 2;
  constexpr std::size_t points = 12;
  constexpr std::size_t channels = 4;

  SetAbstraction sa(4, channels, {{0.6, 4, {5}}, {1.2, 6, {6}}}, rng, "sa_test");
  const Tensor positions = random_input(batch * points, 3, rng, 0.3);
  SetAbstractionAdapter adapter(sa, positions, batch, points);

  const GradCheckResult result =
      nn::grad_check(adapter, random_input(batch * points, channels, rng), true, 1e-4, 2e-2);
  EXPECT_TRUE(result.passed(0.02)) << "input err " << result.max_input_error << " param err "
                                   << result.max_param_error << " bad "
                                   << result.input_bad + result.param_bad << "/"
                                   << result.input_checked + result.param_checked;
}

class GroupAllAdapter : public nn::Layer {
 public:
  GroupAllAdapter(GroupAll& ga, const Tensor& positions, std::size_t batch,
                  std::size_t num_points)
      : ga_(ga), positions_(positions), batch_(batch), num_points_(num_points) {}

  Tensor forward(const Tensor& input, bool training) override {
    BatchedCloud cloud;
    cloud.batch = batch_;
    cloud.num_points = num_points_;
    cloud.positions = positions_;
    cloud.features = input;
    return ga_.forward(cloud, training);
  }
  void infer(const Tensor& input, Tensor& out, nn::Workspace& ws) const override {
    BatchedCloud cloud;
    cloud.batch = batch_;
    cloud.num_points = num_points_;
    cloud.positions = positions_;
    cloud.features = input;
    ga_.infer(cloud, out, ws);
  }
  Tensor backward(const Tensor& grad_output) override { return ga_.backward(grad_output); }
  std::vector<nn::Parameter*> parameters() override { return ga_.parameters(); }

 private:
  GroupAll& ga_;
  Tensor positions_;
  std::size_t batch_;
  std::size_t num_points_;
};

TEST(GradCheck, GroupAll) {
  Rng rng(9);
  constexpr std::size_t batch = 3;
  constexpr std::size_t points = 8;
  GroupAll ga(5, {6}, rng, "ga_test");
  const Tensor positions = random_input(batch * points, 3, rng, 0.4);
  GroupAllAdapter adapter(ga, positions, batch, points);
  const GradCheckResult result =
      nn::grad_check(adapter, random_input(batch * points, 5, rng), true, 1e-4, 2e-2);
  EXPECT_TRUE(result.passed(0.02)) << "input err " << result.max_input_error << " param err "
                                   << result.max_param_error << " bad "
                                   << result.input_bad + result.param_bad << "/"
                                   << result.input_checked + result.param_checked;
}

// Fusion has two inputs; check each by holding the other fixed.
class FusionAdapter : public nn::Layer {
 public:
  FusionAdapter(AttentionFusion& fusion, Tensor fixed, bool vary_resized)
      : fusion_(fusion), fixed_(std::move(fixed)), vary_resized_(vary_resized) {}

  Tensor forward(const Tensor& input, bool /*training*/) override {
    return vary_resized_ ? fusion_.forward(input, fixed_) : fusion_.forward(fixed_, input);
  }
  void infer(const Tensor& input, Tensor& out, nn::Workspace& /*ws*/) const override {
    if (vary_resized_) {
      fusion_.infer(input, fixed_, out);
    } else {
      fusion_.infer(fixed_, input, out);
    }
  }
  Tensor backward(const Tensor& grad_output) override {
    auto grads = fusion_.backward(grad_output);
    return vary_resized_ ? grads.resized : grads.native;
  }
  std::vector<nn::Parameter*> parameters() override { return fusion_.parameters(); }

 private:
  AttentionFusion& fusion_;
  Tensor fixed_;
  bool vary_resized_;
};

TEST(GradCheck, AttentionFusionResizedInput) {
  Rng rng(10);
  AttentionFusion fusion(6, rng, "fusion_test");
  FusionAdapter adapter(fusion, random_input(4, 6, rng), /*vary_resized=*/true);
  const GradCheckResult result = nn::grad_check(adapter, random_input(4, 6, rng), true, 1e-3);
  EXPECT_TRUE(result.passed()) << "input err " << result.max_input_error << " param err "
                               << result.max_param_error;
}

TEST(GradCheck, AttentionFusionNativeInput) {
  Rng rng(11);
  AttentionFusion fusion(5, rng, "fusion_test2");
  FusionAdapter adapter(fusion, random_input(3, 5, rng), /*vary_resized=*/false);
  const GradCheckResult result = nn::grad_check(adapter, random_input(3, 5, rng), true, 1e-3);
  EXPECT_TRUE(result.passed()) << "input err " << result.max_input_error << " param err "
                               << result.max_param_error;
}

TEST(Fusion, WeightsSumToOne) {
  Rng rng(12);
  AttentionFusion fusion(4, rng, "fw");
  Tensor a = random_input(6, 4, rng);
  Tensor b = random_input(6, 4, rng);
  const Tensor y = fusion.forward(a, b);
  EXPECT_EQ(y.rows(), 6u);
  const double w = fusion.mean_resized_weight();
  EXPECT_GT(w, 0.0);
  EXPECT_LT(w, 1.0);
}

TEST(Fusion, DegenerateEqualInputsPassThrough) {
  // If both inputs are identical, Y = s1 F + s2 F = F regardless of gates.
  Rng rng(13);
  AttentionFusion fusion(4, rng, "fd");
  Tensor f = random_input(3, 4, rng);
  const Tensor y = fusion.forward(f, f);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y.vec()[i], f.vec()[i], 1e-6);
}

}  // namespace
}  // namespace gp
