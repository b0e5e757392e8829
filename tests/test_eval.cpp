// Evaluation-library tests: confusion/accuracy/F1, rank-based AUC, ROC and
// EER properties, stratified splits and k-fold structure, t-SNE embedding
// quality (via silhouette), and silhouette behaviour itself.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "eval/metrics.hpp"
#include "eval/roc.hpp"
#include "eval/splits.hpp"
#include "eval/tsne.hpp"

namespace gp {
namespace {

TEST(Confusion, AccuracyAndCounts) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 2);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
  EXPECT_EQ(cm.at(0, 1), 1u);
}

TEST(Confusion, PerfectPredictionsGiveF1One) {
  std::vector<int> truth{0, 1, 2, 0, 1, 2};
  const ConfusionMatrix cm = build_confusion(truth, truth, 3);
  EXPECT_DOUBLE_EQ(cm.macro_f1(), 1.0);
}

TEST(Confusion, KnownF1Value) {
  // Binary: TP=2, FP=1, FN=1 for class 1 => F1 = 2*2/(4+1+1) = 2/3.
  const std::vector<int> truth{1, 1, 1, 0, 0};
  const std::vector<int> pred{1, 1, 0, 1, 0};
  const ConfusionMatrix cm = build_confusion(truth, pred, 2);
  const auto f1 = cm.per_class_f1();
  EXPECT_NEAR(f1[1], 2.0 / 3.0, 1e-12);
}

TEST(Confusion, MacroF1IgnoresAbsentClasses) {
  // Class 2 never appears in truth: macro-F1 averages only classes 0, 1.
  const std::vector<int> truth{0, 0, 1, 1};
  const std::vector<int> pred{0, 0, 1, 1};
  const ConfusionMatrix cm = build_confusion(truth, pred, 3);
  EXPECT_DOUBLE_EQ(cm.macro_f1(), 1.0);
}

TEST(Confusion, NegativePredictionIsAMissInNoCell) {
  // A null-routed sample (no model ran) is a miss for its true class: in
  // the total and the class's support (a false negative), in no cell.
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(1, 1);
  cm.add(1, -1);
  EXPECT_EQ(cm.total(), 3u);
  EXPECT_EQ(cm.at(0, 0) + cm.at(0, 1) + cm.at(1, 0) + cm.at(1, 1), 2u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 2.0 / 3.0);
  EXPECT_NEAR(cm.per_class_f1()[1], 2.0 / 3.0, 1e-12);  // TP=1, FN=1
  EXPECT_DOUBLE_EQ(cm.per_class_f1()[0], 1.0);          // no FP from the miss
  EXPECT_THROW(cm.add(0, 2), InvalidArgument);
}

TEST(Auc, PerfectSeparationGivesOne) {
  const std::vector<std::vector<double>> probs{{0.9, 0.1}, {0.8, 0.2}, {0.1, 0.9}, {0.2, 0.8}};
  EXPECT_NEAR(macro_auc(probs, {0, 0, 1, 1}), 1.0, 1e-12);
}

TEST(Auc, RandomScoresNearHalf) {
  Rng rng(1);
  std::vector<std::vector<double>> probs(2000);
  std::vector<int> truth(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    const double p = rng.uniform();
    probs[i] = {p, 1.0 - p};
    truth[i] = static_cast<int>(rng.index(2));
  }
  EXPECT_NEAR(macro_auc(probs, truth), 0.5, 0.05);
}

TEST(Auc, TiesHandledAsHalf) {
  const std::vector<std::vector<double>> probs(4, {0.5, 0.5});  // all tied
  EXPECT_NEAR(macro_auc(probs, {0, 0, 1, 1}), 0.5, 1e-12);
}

TEST(Roc, PerfectScoresGiveZeroEer) {
  const RocCurve curve = roc_from_scores({0.9, 0.8, 0.95}, {0.1, 0.2, 0.05});
  EXPECT_NEAR(curve.eer(), 0.0, 1e-9);
  EXPECT_NEAR(curve.auc, 1.0, 1e-9);
}

TEST(Roc, RandomScoresGiveHalfEer) {
  Rng rng(2);
  std::vector<double> genuine(3000);
  std::vector<double> impostor(3000);
  for (auto& v : genuine) v = rng.uniform();
  for (auto& v : impostor) v = rng.uniform();
  const RocCurve curve = roc_from_scores(genuine, impostor);
  EXPECT_NEAR(curve.eer(), 0.5, 0.04);
  EXPECT_NEAR(curve.auc, 0.5, 0.04);
}

TEST(Roc, CurveIsMonotone) {
  Rng rng(3);
  std::vector<double> genuine(200);
  std::vector<double> impostor(200);
  for (auto& v : genuine) v = 0.3 + 0.7 * rng.uniform();
  for (auto& v : impostor) v = 0.7 * rng.uniform();
  const RocCurve curve = roc_from_scores(genuine, impostor);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GE(curve.points[i].fpr, curve.points[i - 1].fpr);
    EXPECT_GE(curve.points[i].tpr, curve.points[i - 1].tpr);
  }
  EXPECT_LT(curve.eer(), 0.35);
  EXPECT_GT(curve.auc, 0.65);
}

TEST(Roc, ThresholdsAreStrictlyDecreasing) {
  Rng rng(42);
  std::vector<double> genuine(100);
  std::vector<double> impostor(100);
  for (auto& v : genuine) v = 0.4 + 0.6 * rng.uniform();
  for (auto& v : impostor) v = 0.6 * rng.uniform();
  const RocCurve curve = roc_from_scores(genuine, impostor);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_LT(curve.points[i].threshold, curve.points[i - 1].threshold);
  }
  // Endpoints: (0,0) at the top threshold, (1,1) at the bottom.
  EXPECT_DOUBLE_EQ(curve.points.front().fpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.points.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.points.back().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.points.back().tpr, 1.0);
}

TEST(Roc, EerBoundedByHalfForSeparatedScores) {
  // Better-than-random scores must give EER < 0.5; inverted scores > 0.5.
  const RocCurve good = roc_from_scores({0.8, 0.9, 0.7, 0.85}, {0.2, 0.3, 0.1, 0.4});
  EXPECT_LT(good.eer(), 0.5);
  const RocCurve inverted = roc_from_scores({0.2, 0.3, 0.1, 0.4}, {0.8, 0.9, 0.7, 0.85});
  EXPECT_GT(inverted.eer(), 0.5);
}

TEST(Roc, FromProbabilitiesSplitsGenuineImpostor) {
  // Genuine scores are truth 0's 0.8 and truth 1's 0.9, the rest impostors.
  const std::vector<std::vector<double>> probs{{0.8, 0.15, 0.05}, {0.05, 0.9, 0.05}};
  const RocCurve curve = roc_from_probabilities(probs, {0, 1});
  EXPECT_NEAR(curve.eer(), 0.0, 1e-9);
}

TEST(Splits, StratifiedHoldoutKeepsClassBalance) {
  std::vector<int> labels;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 20; ++i) labels.push_back(c);
  }
  Rng rng(4);
  const Split split = stratified_split(labels, 0.2, rng);
  EXPECT_EQ(split.test.size(), 16u);   // 4 per class
  EXPECT_EQ(split.train.size(), 64u);

  std::vector<int> test_counts(4, 0);
  for (std::size_t idx : split.test) ++test_counts[labels[idx]];
  for (int c : test_counts) EXPECT_EQ(c, 4);

  // Disjoint and exhaustive.
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  for (std::size_t idx : split.test) EXPECT_TRUE(all.insert(idx).second);
  EXPECT_EQ(all.size(), labels.size());
}

TEST(Splits, EveryClassRepresentedInTest) {
  std::vector<int> labels{0, 0, 0, 0, 0, 0, 0, 0, 1, 1};  // imbalanced
  Rng rng(5);
  const Split split = stratified_split(labels, 0.2, rng);
  bool class1_in_test = false;
  for (std::size_t idx : split.test) class1_in_test |= labels[idx] == 1;
  EXPECT_TRUE(class1_in_test);
}

TEST(Splits, KfoldPartitionsExactly) {
  std::vector<int> labels;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) labels.push_back(c);
  }
  Rng rng(6);
  const auto folds = stratified_kfold(labels, 5, rng);
  ASSERT_EQ(folds.size(), 5u);

  std::vector<int> test_membership(labels.size(), 0);
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.test.size(), labels.size());
    for (std::size_t idx : fold.test) ++test_membership[idx];
  }
  // Each sample appears in exactly one fold's test set.
  for (int count : test_membership) EXPECT_EQ(count, 1);
}

TEST(Splits, KfoldRejectsTinyClasses) {
  std::vector<int> labels{0, 0, 0, 1};  // class 1 has 1 < k samples
  Rng rng(7);
  EXPECT_THROW(stratified_kfold(labels, 3, rng), Error);
}

TEST(Tsne, SeparatesWellSeparatedClusters) {
  // Three far-apart Gaussian blobs in 10-D must embed into clearly
  // separated 2-D clusters (silhouette well above zero).
  Rng rng(8);
  const std::size_t per_cluster = 25;
  nn::Tensor features(3 * per_cluster, 10);
  std::vector<int> labels(3 * per_cluster);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      const std::size_t row = c * per_cluster + i;
      labels[row] = static_cast<int>(c);
      for (std::size_t d = 0; d < 10; ++d) {
        features.at(row, d) =
            static_cast<float>((d == c ? 8.0 : 0.0) + rng.gaussian(0.0, 0.5));
      }
    }
  }

  TsneConfig config;
  config.iterations = 250;
  const nn::Tensor embedding = tsne(features, config, rng);
  EXPECT_EQ(embedding.rows(), features.rows());
  EXPECT_EQ(embedding.cols(), 2u);
  EXPECT_GT(silhouette_score(embedding, labels), 0.5);
}

TEST(Silhouette, PerfectClustersNearOne) {
  nn::Tensor embedding(6, 2);
  for (int i = 0; i < 3; ++i) {
    embedding.at(i, 0) = 0.0f + 0.01f * i;
    embedding.at(i + 3, 0) = 10.0f + 0.01f * i;
  }
  EXPECT_GT(silhouette_score(embedding, {0, 0, 0, 1, 1, 1}), 0.95);
}

TEST(Silhouette, RandomLabelsNearZero) {
  Rng rng(9);
  nn::Tensor embedding(60, 2);
  std::vector<int> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    embedding.at(i, 0) = static_cast<float>(rng.gaussian());
    embedding.at(i, 1) = static_cast<float>(rng.gaussian());
    labels[i] = static_cast<int>(rng.index(3));
  }
  EXPECT_NEAR(silhouette_score(embedding, labels), 0.0, 0.15);
}

}  // namespace
}  // namespace gp
