// Open-set user identification: rejecting people who are not enrolled.
//
// §IV-C notes the serialized mode's "capability of handling random gestures
// and unauthorized people" — this module makes that concrete. Neither
// softmax confidence nor the classifier's embedding separates outsiders: a
// discriminatively trained ID model collapses its feature space onto the
// enrolled clusters, so an impostor is simply mapped onto whoever they
// resemble most. What *does* retain outsider signal is the raw biometric
// statistics of the gesture cloud — duration, spatial extent, Doppler
// profile, point density — exactly the §III identity factors (arm length,
// pace, range of motion). Rejection therefore scores novelty as the mean
// distance to the k nearest enrolled gallery samples in a z-scored
// biometric-statistics space, per recognised gesture.
//
// The gallery itself is a value type (BiometricGallery) so that gp::enroll
// can carry one inside the serve process: calibrate once from the enrolled
// training split, score live segments, and grow it incrementally as new
// users are admitted — without re-running the full calibration.
#pragma once

#include <array>
#include <map>
#include <vector>

#include "system/gestureprint.hpp"

namespace gp {

struct OpenSetConfig {
  /// Target fraction of genuine enrolled samples rejected at calibration
  /// (the knob trades convenience vs security).
  double target_false_rejection = 0.05;
  /// Nearest gallery neighbours averaged into the novelty distance.
  std::size_t k_neighbors = 3;
};

/// The biometric-statistics descriptor used for novelty scoring.
inline constexpr std::size_t kBiometricDims = 12;
using BiometricStats = std::array<double, kBiometricDims>;

/// Extracts the descriptor of one gesture cloud: [duration, extent x/y/z,
/// mean |v|, std v, point density, centroid z, and a 4-bin temporal height
/// profile of the motion].
BiometricStats biometric_stats(const GestureCloud& cloud);

/// Per-gesture gallery of z-scored biometric descriptors with a calibrated
/// novelty threshold. Pure value type: no model reference, copyable, and
/// incrementally growable — `enroll_sample`
/// inserts new descriptors under the *frozen* calibration z-statistics so
/// the novelty geometry of already-enrolled users never shifts.
class BiometricGallery {
 public:
  explicit BiometricGallery(OpenSetConfig config = {});

  /// Computes z-scoring statistics over the raw descriptors, builds the
  /// per-gesture gallery, and calibrates the acceptance threshold to the
  /// target FRR via leave-one-out novelty distances. Needs >= 8 samples.
  void calibrate(const std::vector<BiometricStats>& raw, const std::vector<int>& gestures);

  /// Novelty distance of a raw (un-normalized) descriptor for `gesture`.
  /// Unseen gestures score maximally novel (numeric max).
  double novelty(int gesture, const BiometricStats& raw) const;

  /// Whether a novelty distance passes the calibrated threshold.
  bool accepts(double distance) const { return distance <= threshold_; }

  /// Adds one raw descriptor to the gallery under the frozen calibration
  /// z-statistics (incremental enrollment; threshold unchanged).
  void enroll_sample(int gesture, const BiometricStats& raw);

  /// z-scores a descriptor with the calibration statistics. Exposed so
  /// candidate clustering (gp::enroll) operates in the same metric space
  /// the novelty decision uses.
  BiometricStats normalize(const BiometricStats& stats) const;

  /// Mean distance to the k nearest gallery descriptors for this gesture.
  /// `exclude` skips exactly one copy of self (leave-one-out calibration).
  double novelty_normalized(int gesture, const BiometricStats& normalized,
                            const BiometricStats* exclude = nullptr) const;

  double threshold() const { return threshold_; }
  bool calibrated() const { return calibrated_; }
  const OpenSetConfig& config() const { return config_; }
  /// Total descriptors across all gestures.
  std::size_t size() const;

 private:
  OpenSetConfig config_;
  std::map<int, std::vector<BiometricStats>> gallery_;  ///< gesture -> z-scored descriptors
  BiometricStats mean_{};
  BiometricStats stddev_{};
  double threshold_ = 0.0;
  bool calibrated_ = false;
};

/// Decision for one sample under open-set identification.
struct OpenSetDecision {
  bool accepted = false;
  int user = -1;       ///< valid when accepted
  int gesture = -1;
  double distance = 0; ///< novelty distance used for the decision
};

/// Aggregate open-set metrics over a labelled evaluation.
struct OpenSetEvaluation {
  double genuine_accept_rate = 0.0;   ///< enrolled samples accepted
  double impostor_reject_rate = 0.0;  ///< unauthorized samples rejected
  double accepted_uia = 0.0;          ///< ID accuracy among accepted genuine
  double threshold = 0.0;
};

/// Wraps a fitted GesturePrintSystem with novelty-based rejection.
class OpenSetIdentifier {
 public:
  OpenSetIdentifier(GesturePrintSystem& system, OpenSetConfig config = {});

  /// Builds the per-gesture enrollment galleries from the given genuine
  /// samples (the training split works well: the descriptor is model-free,
  /// so there is no overconfidence issue) and calibrates the distance
  /// threshold via leave-one-out to the target FRR.
  void calibrate(const Dataset& dataset, std::span<const std::size_t> genuine_indices);

  /// Classifies one cloud, possibly rejecting it as an outsider.
  OpenSetDecision decide(const GestureCloud& cloud);

  /// Evaluates against genuine samples (from the enrolled dataset) and
  /// impostor samples (clouds from users the system never saw).
  OpenSetEvaluation evaluate(const Dataset& genuine, std::span<const std::size_t> genuine_idx,
                             const std::vector<GestureCloud>& impostors);

  double threshold() const { return gallery_.threshold(); }
  bool calibrated() const { return gallery_.calibrated(); }
  const BiometricGallery& gallery() const { return gallery_; }

 private:
  GesturePrintSystem& system_;
  BiometricGallery gallery_;
};

}  // namespace gp
