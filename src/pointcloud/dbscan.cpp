#include "pointcloud/dbscan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gp {

int DbscanResult::largest_cluster() const {
  if (num_clusters == 0) return kDbscanNoise;
  std::vector<std::size_t> counts(num_clusters, 0);
  for (int l : labels) {
    if (l >= 0) ++counts[static_cast<std::size_t>(l)];
  }
  const auto it = std::max_element(counts.begin(), counts.end());
  return static_cast<int>(std::distance(counts.begin(), it));
}

std::size_t DbscanResult::cluster_size(int cluster) const {
  std::size_t n = 0;
  for (int l : labels) {
    if (l == cluster) ++n;
  }
  return n;
}

DbscanResult dbscan(const PointCloud& cloud, const DbscanParams& params) {
  DbscanScratch scratch;
  DbscanResult result;
  dbscan_into(cloud, params, scratch, result);
  return result;
}

void dbscan_into(const PointCloud& cloud, const DbscanParams& params, DbscanScratch& scratch,
                 DbscanResult& out) {
  check_arg(params.max_distance > 0.0, "DBSCAN max_distance must be positive");
  check_arg(params.min_points >= 1, "DBSCAN min_points must be >= 1");

  const std::size_t n = cloud.size();
  out.labels.assign(n, kDbscanNoise);
  out.num_clusters = 0;
  if (n == 0) return;

  const double eps2 = params.max_distance * params.max_distance;
  // Fills scratch.neighbours with every index within eps of point i
  // (including i itself, matching the classic definition), ascending —
  // the same order the allocating implementation produced.
  const auto find_neighbours = [&](std::size_t i) {
    scratch.neighbours.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if ((cloud[i].position - cloud[j].position).norm2() <= eps2) {
        scratch.neighbours.push_back(j);
      }
    }
  };

  // Per-point state: unseen, queued in the current expansion, or visited.
  constexpr char kUnseen = 0;
  constexpr char kQueued = 1;
  constexpr char kVisited = 2;
  std::vector<char>& state = scratch.state;
  state.assign(n, kUnseen);
  // BFS frontier as a head-indexed ring: push_back grows the tail, the
  // head index advances instead of popping, so the expansion order matches
  // the previous deque-based queue exactly while the storage is recycled.
  // Each point is queued at most once: a repeat entry, or one for a point
  // already visited, would be a no-op when popped (a visited noise point
  // only turns border, which is done here instead). That bounds the
  // recycled queue by n, not by the sum of the neighbourhood sizes.
  std::vector<std::size_t>& queue = scratch.queue;
  int cluster = kDbscanNoise;
  const auto expand = [&]() {
    for (const std::size_t k : scratch.neighbours) {
      if (state[k] == kUnseen) {
        state[k] = kQueued;
        queue.push_back(k);
      } else if (state[k] == kVisited && out.labels[k] == kDbscanNoise) {
        out.labels[k] = cluster;  // border point
      }
    }
  };

  int next_cluster = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != kUnseen) continue;
    state[i] = kVisited;
    find_neighbours(i);
    if (scratch.neighbours.size() < params.min_points) continue;  // not a core point (yet)

    cluster = next_cluster++;
    out.labels[i] = cluster;
    queue.clear();
    expand();
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t j = queue[head];
      state[j] = kVisited;
      out.labels[j] = cluster;
      find_neighbours(j);
      if (scratch.neighbours.size() >= params.min_points) expand();
    }
  }
  out.num_clusters = static_cast<std::size_t>(next_cluster);
}

int largest_cluster(const DbscanResult& result, std::vector<std::size_t>& counts_scratch) {
  if (result.num_clusters == 0) return kDbscanNoise;
  counts_scratch.assign(result.num_clusters, 0);
  for (int l : result.labels) {
    if (l >= 0) ++counts_scratch[static_cast<std::size_t>(l)];
  }
  const auto it = std::max_element(counts_scratch.begin(), counts_scratch.end());
  return static_cast<int>(std::distance(counts_scratch.begin(), it));
}

PointCloud extract_cluster(const PointCloud& cloud, const DbscanResult& result, int cluster) {
  check_arg(cloud.size() == result.labels.size(), "DBSCAN result size mismatch");
  PointCloud out;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    if (result.labels[i] == cluster) out.push_back(cloud[i]);
  }
  return out;
}

}  // namespace gp
