#include "eval/roc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp {

double RocCurve::eer() const {
  check(!points.empty(), "EER of empty ROC curve");
  // Walk the curve looking for the sign change of (FNR - FPR); FNR = 1-TPR.
  double prev_diff = (1.0 - points.front().tpr) - points.front().fpr;
  for (std::size_t i = 1; i < points.size(); ++i) {
    const double diff = (1.0 - points[i].tpr) - points[i].fpr;
    if ((prev_diff >= 0.0 && diff <= 0.0) || (prev_diff <= 0.0 && diff >= 0.0)) {
      const double denom = prev_diff - diff;
      const double t = std::abs(denom) > 1e-12 ? prev_diff / denom : 0.5;
      const double fpr =
          points[i - 1].fpr + t * (points[i].fpr - points[i - 1].fpr);
      const double fnr = (1.0 - points[i - 1].tpr) +
                         t * ((1.0 - points[i].tpr) - (1.0 - points[i - 1].tpr));
      return 0.5 * (fpr + fnr);
    }
    prev_diff = diff;
  }
  // No crossing: report the closest approach.
  double best = 1.0;
  for (const auto& p : points) {
    best = std::min(best, 0.5 * std::abs((1.0 - p.tpr) + p.fpr));
  }
  return best;
}

RocCurve roc_from_scores(const std::vector<double>& genuine,
                         const std::vector<double>& impostor) {
  check_arg(!genuine.empty() && !impostor.empty(), "ROC needs both score sets");

  // Candidate thresholds: every distinct score, processed high -> low.
  std::vector<double> thresholds = genuine;
  thresholds.insert(thresholds.end(), impostor.begin(), impostor.end());
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()), thresholds.end());

  std::vector<double> sorted_genuine = genuine;
  std::vector<double> sorted_impostor = impostor;
  std::sort(sorted_genuine.begin(), sorted_genuine.end(), std::greater<>());
  std::sort(sorted_impostor.begin(), sorted_impostor.end(), std::greater<>());

  RocCurve curve;
  curve.points.reserve(thresholds.size() + 2);
  curve.points.push_back({thresholds.front() + 1.0, 0.0, 0.0});

  std::size_t gi = 0;
  std::size_t ii = 0;
  for (double thr : thresholds) {
    while (gi < sorted_genuine.size() && sorted_genuine[gi] >= thr) ++gi;
    while (ii < sorted_impostor.size() && sorted_impostor[ii] >= thr) ++ii;
    RocPoint p;
    p.threshold = thr;
    p.tpr = static_cast<double>(gi) / static_cast<double>(sorted_genuine.size());
    p.fpr = static_cast<double>(ii) / static_cast<double>(sorted_impostor.size());
    curve.points.push_back(p);
  }
  curve.points.push_back({thresholds.back() - 1.0, 1.0, 1.0});

  // Trapezoidal AUC over the (fpr, tpr) polyline.
  double auc = 0.0;
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    const double dx = curve.points[i].fpr - curve.points[i - 1].fpr;
    auc += dx * 0.5 * (curve.points[i].tpr + curve.points[i - 1].tpr);
  }
  curve.auc = auc;
  return curve;
}

RocCurve roc_from_probabilities(const std::vector<std::vector<double>>& probabilities,
                                const std::vector<int>& truth) {
  check_arg(probabilities.size() == truth.size(), "ROC probability size mismatch");
  std::vector<double> genuine;
  std::vector<double> impostor;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    for (std::size_t c = 0; c < probabilities[i].size(); ++c) {
      const double score = probabilities[i][c];
      if (static_cast<int>(c) == truth[i]) {
        genuine.push_back(score);
      } else {
        impostor.push_back(score);
      }
    }
  }
  return roc_from_scores(genuine, impostor);
}

}  // namespace gp
