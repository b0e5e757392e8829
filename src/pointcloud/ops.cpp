#include "pointcloud/ops.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace gp {

void farthest_point_sample_into(const PointCloud& cloud, std::size_t n, std::size_t start,
                                ResampleScratch& scratch) {
  check_arg(!cloud.empty(), "FPS over empty cloud");
  check_arg(start < cloud.size(), "FPS start index out of range");
  std::vector<std::size_t>& selected = scratch.selected;
  selected.clear();
  if (n >= cloud.size()) {
    selected.resize(cloud.size());
    std::iota(selected.begin(), selected.end(), 0);
    return;
  }

  selected.reserve(n);
  scratch.min_dist2.assign(cloud.size(), std::numeric_limits<double>::infinity());
  std::vector<double>& min_dist2 = scratch.min_dist2;
  std::size_t current = start;
  for (std::size_t round = 0; round < n; ++round) {
    selected.push_back(current);
    std::size_t farthest = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      const double d2 = (cloud[i].position - cloud[current].position).norm2();
      min_dist2[i] = std::min(min_dist2[i], d2);
      if (min_dist2[i] > best) {
        best = min_dist2[i];
        farthest = i;
      }
    }
    current = farthest;
  }
}

void resample_into(const PointCloud& cloud, std::size_t n, Rng& rng, ResampleScratch& scratch,
                   PointCloud& out) {
  check_arg(!cloud.empty(), "resample of empty cloud");
  check_arg(n > 0, "resample to zero points");
  out.clear();
  out.reserve(n);
  if (cloud.size() >= n) {
    // One index() draw for the FPS start point.
    farthest_point_sample_into(cloud, n, rng.index(cloud.size()), scratch);
    for (std::size_t i : scratch.selected) out.push_back(cloud[i]);
  } else {
    out.insert(out.end(), cloud.begin(), cloud.end());
    while (out.size() < n) out.push_back(cloud[rng.index(cloud.size())]);
  }
}

}  // namespace gp
