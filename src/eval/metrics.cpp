#include "eval/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gp {

ConfusionMatrix::ConfusionMatrix(std::size_t num_classes)
    : num_classes_(num_classes),
      counts_(num_classes * num_classes, 0),
      unanswered_(num_classes, 0) {
  check_arg(num_classes >= 2, "confusion matrix needs >= 2 classes");
}

void ConfusionMatrix::add(int truth, int prediction) {
  check_arg(truth >= 0 && static_cast<std::size_t>(truth) < num_classes_, "truth out of range");
  check_arg(prediction < 0 || static_cast<std::size_t>(prediction) < num_classes_,
            "prediction out of range");
  ++total_;
  if (prediction < 0) {
    ++unanswered_[static_cast<std::size_t>(truth)];
    return;
  }
  ++counts_[static_cast<std::size_t>(truth) * num_classes_ + static_cast<std::size_t>(prediction)];
}

std::size_t ConfusionMatrix::at(std::size_t truth, std::size_t prediction) const {
  return counts_[truth * num_classes_ + prediction];
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t c = 0; c < num_classes_; ++c) correct += at(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

std::vector<double> ConfusionMatrix::per_class_f1() const {
  std::vector<double> f1(num_classes_, 0.0);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const double tp = static_cast<double>(at(c, c));
    double fp = 0.0;
    double fn = static_cast<double>(unanswered_[c]);
    for (std::size_t o = 0; o < num_classes_; ++o) {
      if (o == c) continue;
      fp += static_cast<double>(at(o, c));
      fn += static_cast<double>(at(c, o));
    }
    const double denom = 2.0 * tp + fp + fn;
    f1[c] = denom > 0.0 ? 2.0 * tp / denom : 0.0;
  }
  return f1;
}

double ConfusionMatrix::macro_f1() const {
  const auto f1 = per_class_f1();
  double acc = 0.0;
  std::size_t present = 0;
  for (std::size_t c = 0; c < num_classes_; ++c) {
    std::size_t support = unanswered_[c];
    for (std::size_t o = 0; o < num_classes_; ++o) support += at(c, o);
    if (support > 0) {
      acc += f1[c];
      ++present;
    }
  }
  return present > 0 ? acc / static_cast<double>(present) : 0.0;
}

ConfusionMatrix build_confusion(const std::vector<int>& truth,
                                const std::vector<int>& predictions,
                                std::size_t num_classes) {
  check_arg(truth.size() == predictions.size(), "truth/prediction size mismatch");
  ConfusionMatrix cm(num_classes);
  for (std::size_t i = 0; i < truth.size(); ++i) cm.add(truth[i], predictions[i]);
  return cm;
}

double macro_auc(const std::vector<std::vector<double>>& probabilities,
                 const std::vector<int>& truth) {
  check_arg(probabilities.size() == truth.size(), "AUC size mismatch");
  const std::size_t classes = probabilities.empty() ? 0 : probabilities.front().size();
  for (const auto& row : probabilities) check_arg(row.size() == classes, "AUC ragged rows");

  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    // Rank-based AUC for class c vs rest.
    std::vector<std::pair<double, int>> scored;  // (score, is_positive)
    std::size_t positives = 0;
    for (std::size_t i = 0; i < probabilities.size(); ++i) {
      const bool pos = truth[i] == static_cast<int>(c);
      positives += pos ? 1 : 0;
      scored.emplace_back(probabilities[i][c], pos ? 1 : 0);
    }
    const std::size_t negatives = scored.size() - positives;
    if (positives == 0 || negatives == 0) continue;

    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // Sum of positive ranks with tie handling (average ranks).
    double rank_sum = 0.0;
    std::size_t i = 0;
    while (i < scored.size()) {
      std::size_t j = i;
      while (j + 1 < scored.size() && scored[j + 1].first == scored[i].first) ++j;
      const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;  // 1-based
      for (std::size_t k = i; k <= j; ++k) {
        if (scored[k].second == 1) rank_sum += avg_rank;
      }
      i = j + 1;
    }
    const double p = static_cast<double>(positives);
    const double n = static_cast<double>(negatives);
    acc += (rank_sum - p * (p + 1.0) / 2.0) / (p * n);
    ++counted;
  }
  return counted > 0 ? acc / static_cast<double>(counted) : 0.0;
}

}  // namespace gp
