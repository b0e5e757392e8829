// Neural-network library tests: tensor kernels, layer semantics, loss
// values, optimiser behaviour, and serialization. Exact-gradient checks
// live in test_nn_gradcheck.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize_nn.hpp"
#include "nn/tensor.hpp"

namespace gp::nn {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.numel(), 6u);
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.5f);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Tensor b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Tensor c;
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Tensor, MatmulVariantsAgree) {
  Rng rng(1);
  Tensor a(4, 6);
  a.randn(rng, 1.0);
  Tensor b(6, 5);
  b.randn(rng, 1.0);

  Tensor direct;
  matmul(a, b, direct);

  // matmul_bt: c = a * bt^T where bt = b^T.
  Tensor bt(5, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor via_bt;
  matmul_bt(a, bt, via_bt);
  for (std::size_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(via_bt.vec()[i], direct.vec()[i], 1e-4);
  }

  // matmul_at: c = at^T * b where at = a^T.
  Tensor at(6, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor via_at;
  matmul_at(at, b, via_at);
  for (std::size_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(via_at.vec()[i], direct.vec()[i], 1e-4);
  }
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(2, 3);
  Tensor b(4, 5);
  Tensor c;
  EXPECT_THROW(matmul(a, b, c), InvalidArgument);
}

TEST(Linear, ForwardAppliesWeightsAndBias) {
  Rng rng(2);
  Linear layer(2, 3, rng);
  layer.weight().value.fill(0.0f);
  layer.weight().value.at(0, 0) = 1.0f;  // out0 = in0
  layer.weight().value.at(1, 1) = 2.0f;  // out1 = 2*in1
  layer.bias().value.at(0, 2) = 5.0f;    // out2 = 5

  Tensor x(1, 2);
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  const Tensor y = layer.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(ReLU, ClampsAndMasksGradient) {
  ReLU relu;
  Tensor x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 2.0f;
  x.at(0, 2) = 0.0f;
  x.at(0, 3) = -3.0f;
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);

  Tensor g(1, 4, 1.0f);
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 3), 0.0f);
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(3);
  Dropout dropout(0.5, rng);
  Tensor x(4, 4, 2.0f);
  const Tensor y = dropout.forward(x, false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y.vec()[i], 2.0f);
}

TEST(Dropout, TrainingKeepsExpectationAndZeroesSome) {
  Rng rng(4);
  Dropout dropout(0.4, rng);
  Tensor x(100, 10, 1.0f);
  const Tensor y = dropout.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y.vec()[i] == 0.0f) ++zeros;
    sum += y.vec()[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.4, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.08);  // inverted dropout preserves mean
}

TEST(BatchNorm, NormalisesBatchStatistics) {
  Rng rng(5);
  BatchNorm1d bn(3, rng);
  Tensor x(64, 3);
  x.randn(rng, 4.0);
  for (std::size_t i = 0; i < 64; ++i) x.at(i, 1) += 10.0f;  // shifted channel

  const Tensor y = bn.forward(x, true);
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0.0;
    for (std::size_t i = 0; i < 64; ++i) mean += y.at(i, c);
    mean /= 64.0;
    double var = 0.0;
    for (std::size_t i = 0; i < 64; ++i) var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsUsedAtInference) {
  Rng rng(6);
  BatchNorm1d bn(1, rng);
  // Feed many training batches with mean 5.
  for (int step = 0; step < 200; ++step) {
    Tensor x(32, 1);
    for (std::size_t i = 0; i < 32; ++i) x.at(i, 0) = 5.0f + static_cast<float>(rng.gaussian());
    bn.forward(x, true);
  }
  // At inference a value of 5 should map near 0.
  Tensor probe(1, 1);
  probe.at(0, 0) = 5.0f;
  const Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y.at(0, 0), 0.0, 0.15);
}

TEST(Sequential, ComposesLayers) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Linear>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);  // two Linear layers x (W, b)

  Tensor x(5, 4);
  x.randn(rng, 1.0);
  const Tensor y = seq.forward(x, true);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(8);
  Tensor logits(6, 4);
  logits.randn(rng, 3.0);
  const Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 4; ++c) {
      sum += p.at(i, c);
      EXPECT_GE(p.at(i, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Loss, CrossEntropyOfUniformIsLogK) {
  Tensor logits(3, 5, 0.0f);  // uniform distribution
  const LossResult result = softmax_cross_entropy(logits, {0, 2, 4});
  EXPECT_NEAR(result.loss, std::log(5.0), 1e-6);
}

TEST(Loss, GradPointsTowardCorrectClass) {
  Tensor logits(1, 3, 0.0f);
  const LossResult result = softmax_cross_entropy(logits, {1});
  // grad = p - onehot: (1/3, 1/3-1, 1/3).
  EXPECT_NEAR(result.grad.at(0, 0), 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.grad.at(0, 1), 1.0 / 3.0 - 1.0, 1e-6);
}

TEST(Loss, WeightScalesLossAndGrad) {
  Rng rng(9);
  Tensor logits(4, 3);
  logits.randn(rng, 1.0);
  const std::vector<int> labels{0, 1, 2, 0};
  const LossResult full = softmax_cross_entropy(logits, labels, 1.0);
  const LossResult half = softmax_cross_entropy(logits, labels, 0.5);
  EXPECT_NEAR(half.loss, 0.5 * full.loss, 1e-9);
  EXPECT_NEAR(half.grad.at(2, 1), 0.5 * full.grad.at(2, 1), 1e-7);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits(3, 2);
  logits.at(0, 0) = 2.0f;  // pred 0
  logits.at(1, 1) = 2.0f;  // pred 1
  logits.at(2, 0) = 2.0f;  // pred 0
  EXPECT_NEAR(accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Optimizer, AdamDescendsIllConditionedQuadratic) {
  Parameter w;
  w.value = Tensor(1, 2);
  w.value.at(0, 0) = 4.0f;
  w.value.at(0, 1) = -2.0f;
  w.grad = Tensor(1, 2);
  Adam opt({&w}, 0.05);
  for (int i = 0; i < 800; ++i) {
    w.grad.at(0, 0) = 100.0f * w.value.at(0, 0);  // steep axis
    w.grad.at(0, 1) = 0.1f * w.value.at(0, 1);    // shallow axis
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 0.0f, 1e-2);
  EXPECT_NEAR(w.value.at(0, 1), 0.0f, 0.15);
}

TEST(Optimizer, StepClearsGradients) {
  Parameter w;
  w.value = Tensor(1, 1, 1.0f);
  w.grad = Tensor(1, 1, 2.0f);
  Adam opt({&w}, 0.01);
  opt.step();
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 0.0f);
}

TEST(SerializeNn, RoundTripRestoresWeights) {
  Rng rng(10);
  Sequential a;
  a.emplace<Linear>(3, 4, rng, "l0");
  a.emplace<BatchNorm1d>(4, rng, 0.1, 1e-5, "l0");
  a.emplace<Linear>(4, 2, rng, "l1");

  std::stringstream buffer;
  save_parameters(buffer, a.parameters());

  Rng rng2(999);  // different init
  Sequential b;
  b.emplace<Linear>(3, 4, rng2, "l0");
  b.emplace<BatchNorm1d>(4, rng2, 0.1, 1e-5, "l0");
  b.emplace<Linear>(4, 2, rng2, "l1");
  load_parameters(buffer, b.parameters());

  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      EXPECT_FLOAT_EQ(pa[i]->value.vec()[j], pb[i]->value.vec()[j]);
    }
  }
}

TEST(SerializeNn, RejectsLayoutMismatch) {
  Rng rng(11);
  Sequential a;
  a.emplace<Linear>(3, 4, rng, "l0");
  std::stringstream buffer;
  save_parameters(buffer, a.parameters());

  Sequential b;
  b.emplace<Linear>(3, 5, rng, "l0");  // different width
  EXPECT_THROW(load_parameters(buffer, b.parameters()), SerializationError);
}

}  // namespace
}  // namespace gp::nn
