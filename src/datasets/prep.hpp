// Featurization + augmentation of dataset subsets into trainer-ready
// LabeledSamples.
#pragma once

#include <span>

#include "datasets/dataset.hpp"
#include "gesidnet/trainer.hpp"
#include "pipeline/augmentation.hpp"

namespace gp {

enum class LabelKind { kGesture, kUser };

struct PrepConfig {
  FeatureConfig features;
  AugmentationParams augmentation{0.02, 3};
  bool augment = false;  ///< enable for training subsets only
};

/// Featurizes the samples selected by `indices` and labels them with the
/// chosen label kind. With augment=true, each sample also contributes
/// `augmentation.copies` jittered clones (§IV-B).
LabeledSamples prepare_subset(const Dataset& dataset, std::span<const std::size_t> indices,
                              LabelKind kind, const PrepConfig& config, Rng& rng);

/// Rows prepare_subset() returns for `n` indices: one per sample plus its
/// augmentation copies.
std::size_t prepared_size(std::size_t n, const PrepConfig& config);

/// Filters sample indices by predicate helpers used across benches.
std::vector<std::size_t> indices_where_gesture(const Dataset& dataset, int gesture);
std::vector<std::size_t> indices_where_distance(const Dataset& dataset, double distance,
                                                double tolerance = 1e-6);
std::vector<std::size_t> indices_where_speed(const Dataset& dataset, double speed,
                                             double tolerance = 1e-6);
std::vector<std::size_t> all_indices(const Dataset& dataset);

}  // namespace gp
