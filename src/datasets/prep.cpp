#include "datasets/prep.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp {

LabeledSamples prepare_subset(const Dataset& dataset, std::span<const std::size_t> indices,
                              LabelKind kind, const PrepConfig& config, Rng& rng) {
  check_arg(!indices.empty(), "prepare_subset with no indices");
  LabeledSamples out;
  const std::size_t rows = prepared_size(indices.size(), config);
  out.samples.reserve(rows);
  out.labels.reserve(rows);

  for (std::size_t idx : indices) {
    check_arg(idx < dataset.samples.size(), "sample index out of range");
    const GestureSample& sample = dataset.samples[idx];
    const int label = kind == LabelKind::kGesture ? sample.gesture : sample.user;

    out.push(featurize(sample.cloud, config.features, rng), label);
    if (config.augment) {
      for (int copy = 0; copy < config.augmentation.copies; ++copy) {
        GestureCloud jittered = sample.cloud;
        jittered.points = jitter_cloud(sample.cloud.points, config.augmentation.sigma, rng);
        out.push(featurize(jittered, config.features, rng), label);
      }
    }
  }
  return out;
}

std::size_t prepared_size(std::size_t n, const PrepConfig& config) {
  const int copies = config.augment ? std::max(config.augmentation.copies, 0) : 0;
  return n * (1 + static_cast<std::size_t>(copies));
}

std::vector<std::size_t> indices_where_gesture(const Dataset& dataset, int gesture) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i) {
    if (dataset.samples[i].gesture == gesture) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> indices_where_distance(const Dataset& dataset, double distance,
                                                double tolerance) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i) {
    if (std::fabs(dataset.samples[i].distance - distance) <= tolerance) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> indices_where_speed(const Dataset& dataset, double speed,
                                             double tolerance) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i) {
    if (std::fabs(dataset.samples[i].speed - speed) <= tolerance) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> all_indices(const Dataset& dataset) {
  std::vector<std::size_t> out(dataset.samples.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

}  // namespace gp
