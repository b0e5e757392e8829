#include "system/open_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace gp {

BiometricStats biometric_stats(const GestureCloud& cloud) {
  check_arg(!cloud.points.empty(), "biometric stats of empty cloud");
  const auto& pts = cloud.points;
  const Aabb box = bounding_box(pts);
  const Vec3 c = centroid(pts);

  double mean_speed = 0.0;
  for (const auto& p : pts) mean_speed += std::abs(p.velocity);
  mean_speed /= static_cast<double>(pts.size());
  double var_speed = 0.0;
  for (const auto& p : pts) {
    const double d = std::abs(p.velocity) - mean_speed;
    var_speed += d * d;
  }
  var_speed /= static_cast<double>(pts.size());

  // 4-bin temporal height profile: where the hand sits over the motion —
  // captures trajectory shape habits beyond aggregate extents.
  int min_frame = pts.front().frame;
  int max_frame = pts.front().frame;
  for (const auto& p : pts) {
    min_frame = std::min(min_frame, p.frame);
    max_frame = std::max(max_frame, p.frame);
  }
  const double span = std::max(1, max_frame - min_frame);
  std::array<double, 4> height_sum{};
  std::array<double, 4> height_count{};
  for (const auto& p : pts) {
    const double t = (p.frame - min_frame) / span;
    const auto bin = std::min<std::size_t>(3, static_cast<std::size_t>(t * 4.0));
    height_sum[bin] += p.position.z;
    height_count[bin] += 1.0;
  }

  BiometricStats stats{};
  stats[0] = static_cast<double>(cloud.num_frames) / 30.0;
  stats[1] = box.extent().x;
  stats[2] = box.extent().y;
  stats[3] = box.extent().z;
  stats[4] = mean_speed;
  stats[5] = std::sqrt(var_speed);
  stats[6] = static_cast<double>(pts.size()) / 300.0;
  stats[7] = c.z;
  for (std::size_t b = 0; b < 4; ++b) {
    stats[8 + b] = height_count[b] > 0.0 ? height_sum[b] / height_count[b] : c.z;
  }
  return stats;
}

namespace {

double l2(const BiometricStats& a, const BiometricStats& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < kBiometricDims; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace

BiometricGallery::BiometricGallery(OpenSetConfig config) : config_(config) {
  check_arg(config_.target_false_rejection > 0.0 && config_.target_false_rejection < 0.5,
            "target false rejection must be in (0, 0.5)");
  check_arg(config_.k_neighbors >= 1, "k_neighbors must be >= 1");
}

BiometricStats BiometricGallery::normalize(const BiometricStats& stats) const {
  BiometricStats out{};
  for (std::size_t d = 0; d < kBiometricDims; ++d) {
    out[d] = (stats[d] - mean_[d]) / stddev_[d];
  }
  return out;
}

double BiometricGallery::novelty_normalized(int gesture, const BiometricStats& normalized,
                                            const BiometricStats* exclude) const {
  const auto it = gallery_.find(gesture);
  if (it == gallery_.end() || it->second.empty()) {
    // No enrollment evidence for this gesture: maximally novel.
    return std::numeric_limits<double>::max();
  }
  std::vector<double> distances;
  distances.reserve(it->second.size());
  bool excluded = false;
  for (const auto& enrolled : it->second) {
    if (!excluded && exclude != nullptr && enrolled == *exclude) {
      excluded = true;  // leave-one-out: skip exactly one copy of self
      continue;
    }
    distances.push_back(l2(enrolled, normalized));
  }
  if (distances.empty()) return std::numeric_limits<double>::max();
  const std::size_t k = std::min(config_.k_neighbors, distances.size());
  std::partial_sort(distances.begin(), distances.begin() + static_cast<std::ptrdiff_t>(k),
                    distances.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += distances[i];
  return acc / static_cast<double>(k);
}

double BiometricGallery::novelty(int gesture, const BiometricStats& raw) const {
  check(calibrated_, "biometric gallery not calibrated");
  return novelty_normalized(gesture, normalize(raw));
}

void BiometricGallery::enroll_sample(int gesture, const BiometricStats& raw) {
  check(calibrated_, "biometric gallery not calibrated");
  // Frozen z-stats: incremental enrollment must not move the metric space
  // under already-enrolled users, so only the gallery grows.
  gallery_[gesture].push_back(normalize(raw));
}

std::size_t BiometricGallery::size() const {
  std::size_t total = 0;
  for (const auto& [gesture, samples] : gallery_) total += samples.size();
  return total;
}

void BiometricGallery::calibrate(const std::vector<BiometricStats>& raw,
                                 const std::vector<int>& gestures) {
  check_arg(raw.size() == gestures.size(), "gallery calibration label mismatch");
  check_arg(raw.size() >= 8, "calibration needs several genuine samples");

  mean_.fill(0.0);
  for (const auto& s : raw) {
    for (std::size_t d = 0; d < kBiometricDims; ++d) mean_[d] += s[d];
  }
  for (std::size_t d = 0; d < kBiometricDims; ++d) {
    mean_[d] /= static_cast<double>(raw.size());
  }
  stddev_.fill(0.0);
  for (const auto& s : raw) {
    for (std::size_t d = 0; d < kBiometricDims; ++d) {
      stddev_[d] += (s[d] - mean_[d]) * (s[d] - mean_[d]);
    }
  }
  for (std::size_t d = 0; d < kBiometricDims; ++d) {
    stddev_[d] = std::max(std::sqrt(stddev_[d] / static_cast<double>(raw.size())), 1e-6);
  }

  // Build the per-gesture gallery. The *true* gesture label is available at
  // enrollment time (users perform prompted gestures), so use it.
  gallery_.clear();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    gallery_[gestures[i]].push_back(normalize(raw[i]));
  }

  // Leave-one-out novelty distances of the genuine enrollment samples.
  std::vector<double> distances;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const BiometricStats probe = normalize(raw[i]);
    const double d = novelty_normalized(gestures[i], probe, &probe);
    if (d < std::numeric_limits<double>::max()) distances.push_back(d);
  }
  check(!distances.empty(), "no usable calibration distances");

  // Accept while distance <= threshold; the (1 - FRR) quantile of genuine
  // distances rejects ~FRR of genuine probes.
  threshold_ = quantile(distances, 1.0 - config_.target_false_rejection);
  calibrated_ = true;
}

OpenSetIdentifier::OpenSetIdentifier(GesturePrintSystem& system, OpenSetConfig config)
    : system_(system), gallery_(config) {
  check_arg(system_.fitted(), "open-set wrapper needs a fitted system");
}

void OpenSetIdentifier::calibrate(const Dataset& dataset,
                                  std::span<const std::size_t> genuine_indices) {
  check_arg(genuine_indices.size() >= 8, "calibration needs several genuine samples");
  std::vector<BiometricStats> raw;
  std::vector<int> gestures;
  raw.reserve(genuine_indices.size());
  for (std::size_t idx : genuine_indices) {
    raw.push_back(biometric_stats(dataset.samples[idx].cloud));
    gestures.push_back(dataset.samples[idx].gesture);
  }
  gallery_.calibrate(raw, gestures);
}

OpenSetDecision OpenSetIdentifier::decide(const GestureCloud& cloud) {
  check(gallery_.calibrated(), "open-set identifier not calibrated");
  const InferenceResult inference = system_.classify(cloud);

  OpenSetDecision decision;
  decision.gesture = inference.gesture;
  decision.distance = gallery_.novelty(inference.gesture, biometric_stats(cloud));
  if (gallery_.accepts(decision.distance)) {
    decision.accepted = true;
    decision.user = inference.user;
  }
  return decision;
}

OpenSetEvaluation OpenSetIdentifier::evaluate(const Dataset& genuine,
                                              std::span<const std::size_t> genuine_idx,
                                              const std::vector<GestureCloud>& impostors) {
  check_arg(!genuine_idx.empty() && !impostors.empty(), "open-set eval needs both cohorts");

  OpenSetEvaluation eval;
  eval.threshold = gallery_.threshold();

  std::size_t accepted = 0;
  std::size_t accepted_correct = 0;
  for (std::size_t idx : genuine_idx) {
    const OpenSetDecision decision = decide(genuine.samples[idx].cloud);
    if (decision.accepted) {
      ++accepted;
      if (decision.user == genuine.samples[idx].user) ++accepted_correct;
    }
  }
  eval.genuine_accept_rate =
      static_cast<double>(accepted) / static_cast<double>(genuine_idx.size());
  eval.accepted_uia =
      accepted > 0 ? static_cast<double>(accepted_correct) / static_cast<double>(accepted) : 0.0;

  std::size_t rejected = 0;
  for (const GestureCloud& cloud : impostors) {
    if (!decide(cloud).accepted) ++rejected;
  }
  eval.impostor_reject_rate =
      static_cast<double>(rejected) / static_cast<double>(impostors.size());
  return eval;
}

}  // namespace gp
