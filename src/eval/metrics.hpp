// Classification evaluation metrics matching §VI-A3: accuracy, macro
// F1-score, macro one-vs-rest AUC, and the confusion matrix they derive
// from.
#pragma once

#include <cstddef>
#include <vector>

namespace gp {

/// Row-major confusion matrix: entry (truth, prediction).
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::size_t num_classes);

  /// A negative prediction is "no answer" (no model ran): it counts in the
  /// total and in the true class's support — a false negative — and in no
  /// cell.
  void add(int truth, int prediction);
  std::size_t at(std::size_t truth, std::size_t prediction) const;
  std::size_t num_classes() const { return num_classes_; }
  std::size_t total() const { return total_; }

  double accuracy() const;
  /// Per-class F1; classes absent from truth and predictions score 0.
  std::vector<double> per_class_f1() const;
  /// Macro-averaged F1 over classes present in the truth labels.
  double macro_f1() const;

 private:
  std::size_t num_classes_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> unanswered_;  ///< per true class
  std::size_t total_ = 0;
};

ConfusionMatrix build_confusion(const std::vector<int>& truth,
                                const std::vector<int>& predictions,
                                std::size_t num_classes);

/// Macro one-vs-rest ROC AUC from class probability rows, one per sample,
/// all the same width (Mann–Whitney / rank formulation; ties counted half).
double macro_auc(const std::vector<std::vector<double>>& probabilities,
                 const std::vector<int>& truth);

}  // namespace gp
