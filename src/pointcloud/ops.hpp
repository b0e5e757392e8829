// Point-cloud resampling: farthest point sampling and fixed-size resampling,
// the featurization step that gives every GesIDNet input the same point
// count. (Set-abstraction grouping keeps its own ball query in
// gesidnet/set_abstraction.cpp.)
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "pointcloud/point.hpp"

namespace gp {

/// Reusable working memory for resample_into (FPS selection + distance
/// table); one per hot caller keeps resampling allocation-free.
struct ResampleScratch {
  std::vector<std::size_t> selected;
  std::vector<double> min_dist2;
};

/// Farthest point sampling: greedily selects n indices maximising pairwise
/// coverage, starting from `start`, into `scratch.selected`. If the cloud
/// has fewer than n points all indices are selected (no padding here;
/// callers pad).
void farthest_point_sample_into(const PointCloud& cloud, std::size_t n, std::size_t start,
                                ResampleScratch& scratch);

/// Resamples a cloud to exactly n points into `out`: FPS when shrinking,
/// repetition with jitter-free duplication when growing. Deterministic given
/// `rng`; reuses `out`'s capacity and `scratch`'s tables.
void resample_into(const PointCloud& cloud, std::size_t n, Rng& rng, ResampleScratch& scratch,
                   PointCloud& out);

}  // namespace gp
