// DBSCAN density clustering.
//
// Used by the noise-canceling module (§IV-B): cluster the aggregated gesture
// cloud, keep the cluster with the most points (the user's body/arm), drop
// everything else (multipath ghosts, other reflectors, other people).
#pragma once

#include <cstddef>
#include <vector>

#include "pointcloud/point.hpp"

namespace gp {

struct DbscanParams {
  double max_distance = 1.0;    ///< D_max: eps neighbourhood radius (m)
  std::size_t min_points = 4;   ///< N_min: minimum cluster size (core point)
};

inline constexpr int kDbscanNoise = -1;

struct DbscanResult {
  /// Per-point cluster id in [0, num_clusters) or kDbscanNoise.
  std::vector<int> labels;
  std::size_t num_clusters = 0;

  /// Index of the cluster with the most members; kDbscanNoise if none.
  int largest_cluster() const;
  /// Number of points assigned to `cluster`.
  std::size_t cluster_size(int cluster) const;
};

/// Runs DBSCAN over point positions (Euclidean metric).
DbscanResult dbscan(const PointCloud& cloud, const DbscanParams& params);

/// Reusable working memory for dbscan_into: hot loops keep one per caller
/// so repeated clustering stops allocating (capacities stay warm).
struct DbscanScratch {
  std::vector<char> state;  ///< per point: unseen / queued / visited
  std::vector<std::size_t> neighbours;
  std::vector<std::size_t> queue;  ///< BFS ring (head index, no pops)
};

/// Allocation-free variant of dbscan(): identical labels/cluster ids
/// (bit-for-bit BFS expansion order), with every buffer including
/// `out.labels` recycled across calls.
void dbscan_into(const PointCloud& cloud, const DbscanParams& params, DbscanScratch& scratch,
                 DbscanResult& out);

/// largest_cluster() with caller-owned count scratch (allocation-free once
/// warm). Same result as DbscanResult::largest_cluster().
int largest_cluster(const DbscanResult& result, std::vector<std::size_t>& counts_scratch);

/// Extracts the points of one cluster.
PointCloud extract_cluster(const PointCloud& cloud, const DbscanResult& result, int cluster);

}  // namespace gp
