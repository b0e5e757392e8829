// ROC curves and Equal Error Rate for the user-identification study
// (Fig. 10). Genuine scores are the classifier's probability for the true
// user; impostor scores are the probabilities assigned to every other user.
#pragma once

#include <vector>

namespace gp {

struct RocPoint {
  double threshold = 0.0;
  double fpr = 0.0;  ///< impostor accepted
  double tpr = 0.0;  ///< genuine accepted
};

struct RocCurve {
  std::vector<RocPoint> points;  ///< ordered by decreasing threshold
  double auc = 0.0;

  /// Equal error rate: where FPR == FNR (linear interpolation between the
  /// bracketing curve points).
  double eer() const;
};

/// Builds a ROC curve from raw scores.
RocCurve roc_from_scores(const std::vector<double>& genuine,
                         const std::vector<double>& impostor);

/// Convenience: splits per-class probability rows (one per sample) into
/// genuine/impostor scores and builds the curve.
RocCurve roc_from_probabilities(const std::vector<std::vector<double>>& probabilities,
                                const std::vector<int>& truth);

}  // namespace gp
