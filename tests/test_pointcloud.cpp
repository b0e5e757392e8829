// Tests for point-cloud primitives: aggregation/bounds, farthest point
// sampling, resampling, DBSCAN invariants, and the metric
// axioms of HD / CD / JSD (the §III preliminary-study metrics).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/metrics.hpp"
#include "pointcloud/ops.hpp"
#include "pointcloud/point.hpp"

namespace gp {
namespace {

RadarPoint make_point(double x, double y, double z, int frame = 0) {
  RadarPoint p;
  p.position = Vec3(x, y, z);
  p.frame = frame;
  return p;
}

PointCloud random_cloud(std::size_t n, Rng& rng, const Vec3& center = {}, double spread = 0.3) {
  PointCloud cloud;
  cloud.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cloud.push_back(make_point(center.x + rng.gaussian(0.0, spread),
                               center.y + rng.gaussian(0.0, spread),
                               center.z + rng.gaussian(0.0, spread)));
  }
  return cloud;
}

TEST(PointTypes, AggregatePreservesAllPoints) {
  FrameSequence frames(3);
  for (int f = 0; f < 3; ++f) {
    frames[f].frame_index = f;
    for (int i = 0; i <= f; ++i) frames[f].points.push_back(make_point(f, i, 0, f));
  }
  const PointCloud all = aggregate(frames);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(total_points(frames), 6u);
}

TEST(PointTypes, CentroidAndBounds) {
  PointCloud cloud{make_point(0, 0, 0), make_point(2, 4, -2)};
  const Vec3 c = centroid(cloud);
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 2.0);
  EXPECT_DOUBLE_EQ(c.z, -1.0);
  const Aabb box = bounding_box(cloud);
  EXPECT_DOUBLE_EQ(box.extent().y, 4.0);
}

TEST(Ops, FpsSelectsSpreadOutPoints) {
  // Two far-apart blobs: FPS with n=2 must pick one point from each.
  Rng rng(5);
  PointCloud cloud = random_cloud(20, rng, Vec3(0, 0, 0), 0.05);
  const PointCloud far_blob = random_cloud(20, rng, Vec3(10, 0, 0), 0.05);
  cloud.insert(cloud.end(), far_blob.begin(), far_blob.end());

  ResampleScratch scratch;
  farthest_point_sample_into(cloud, 2, 0, scratch);
  const auto& idx = scratch.selected;
  ASSERT_EQ(idx.size(), 2u);
  const double gap = (cloud[idx[0]].position - cloud[idx[1]].position).norm();
  EXPECT_GT(gap, 8.0);
}

TEST(Ops, FpsReturnsAllWhenAskingTooMany) {
  Rng rng(6);
  const PointCloud cloud = random_cloud(5, rng);
  ResampleScratch scratch;
  farthest_point_sample_into(cloud, 10, 0, scratch);
  EXPECT_EQ(scratch.selected.size(), 5u);
}

TEST(Ops, ResampleHitsExactCount) {
  Rng rng(7);
  const PointCloud cloud = random_cloud(50, rng);
  ResampleScratch scratch;
  PointCloud out;
  resample_into(cloud, 16, rng, scratch, out);
  EXPECT_EQ(out.size(), 16u);
  resample_into(cloud, 128, rng, scratch, out);
  EXPECT_EQ(out.size(), 128u);  // upsampling duplicates
}

TEST(Dbscan, SeparatesTwoBlobsAndFlagsOutliers) {
  Rng rng(9);
  PointCloud cloud = random_cloud(30, rng, Vec3(0, 0, 0), 0.1);
  const PointCloud blob2 = random_cloud(20, rng, Vec3(5, 0, 0), 0.1);
  cloud.insert(cloud.end(), blob2.begin(), blob2.end());
  cloud.push_back(make_point(100, 100, 100));  // lone outlier

  const DbscanResult result = dbscan(cloud, DbscanParams{0.5, 4});
  EXPECT_EQ(result.num_clusters, 2u);
  EXPECT_EQ(result.labels.back(), kDbscanNoise);
  EXPECT_EQ(result.cluster_size(result.largest_cluster()), 30u);
}

TEST(Dbscan, AllNoiseWhenSparse) {
  PointCloud cloud;
  for (int i = 0; i < 10; ++i) cloud.push_back(make_point(i * 10.0, 0, 0));
  const DbscanResult result = dbscan(cloud, DbscanParams{1.0, 4});
  EXPECT_EQ(result.num_clusters, 0u);
  EXPECT_EQ(result.largest_cluster(), kDbscanNoise);
}

TEST(Dbscan, SingleClusterWhenDense) {
  Rng rng(10);
  const PointCloud cloud = random_cloud(50, rng, Vec3(0, 0, 0), 0.2);
  const DbscanResult result = dbscan(cloud, DbscanParams{1.0, 4});
  EXPECT_EQ(result.num_clusters, 1u);
  for (int label : result.labels) EXPECT_EQ(label, 0);
}

TEST(Dbscan, ExtractClusterMatchesLabels) {
  Rng rng(11);
  PointCloud cloud = random_cloud(25, rng, Vec3(0, 0, 0), 0.1);
  const PointCloud blob2 = random_cloud(15, rng, Vec3(4, 0, 0), 0.1);
  cloud.insert(cloud.end(), blob2.begin(), blob2.end());
  const DbscanResult result = dbscan(cloud, DbscanParams{0.6, 3});
  std::size_t extracted_total = 0;
  for (int c = 0; c < static_cast<int>(result.num_clusters); ++c) {
    extracted_total += extract_cluster(cloud, result, c).size();
  }
  std::size_t labelled = 0;
  for (int l : result.labels) {
    if (l >= 0) ++labelled;
  }
  EXPECT_EQ(extracted_total, labelled);
}

TEST(Dbscan, MinPointsBoundary) {
  // Exactly min_points points within eps forms a cluster; fewer does not.
  PointCloud four{make_point(0, 0, 0), make_point(0.1, 0, 0), make_point(0, 0.1, 0),
                  make_point(0.1, 0.1, 0)};
  EXPECT_EQ(dbscan(four, DbscanParams{0.5, 4}).num_clusters, 1u);
  PointCloud three(four.begin(), four.begin() + 3);
  EXPECT_EQ(dbscan(three, DbscanParams{0.5, 4}).num_clusters, 0u);
}

/// Textbook DBSCAN whose BFS queues every neighbour of every core point,
/// duplicates included: the labelling dbscan_into must reproduce exactly.
std::vector<int> reference_dbscan_labels(const PointCloud& cloud, const DbscanParams& params) {
  const std::size_t n = cloud.size();
  const double eps2 = params.max_distance * params.max_distance;
  const auto neighbours = [&](std::size_t i) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < n; ++j) {
      if ((cloud[i].position - cloud[j].position).norm2() <= eps2) out.push_back(j);
    }
    return out;
  };
  std::vector<int> labels(n, kDbscanNoise);
  std::vector<char> visited(n, 0);
  int next_cluster = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (visited[i]) continue;
    visited[i] = 1;
    std::vector<std::size_t> queue = neighbours(i);
    if (queue.size() < params.min_points) continue;
    const int cluster = next_cluster++;
    labels[i] = cluster;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t j = queue[head];
      if (labels[j] == kDbscanNoise) labels[j] = cluster;
      if (visited[j]) continue;
      visited[j] = 1;
      labels[j] = cluster;
      const std::vector<std::size_t> more = neighbours(j);
      if (more.size() >= params.min_points) queue.insert(queue.end(), more.begin(), more.end());
    }
  }
  return labels;
}

// Each point enters the recycled BFS queue at most once, so the scratch a
// streaming session keeps is bounded by the point count, while the labels
// (cluster ids, border assignment) stay those of the textbook expansion.
TEST(Dbscan, QueueBoundedByPointCountWithReferenceLabels) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    PointCloud cloud = random_cloud(120, rng, Vec3(0, 0, 0), 0.6);
    const PointCloud blob2 = random_cloud(60, rng, Vec3(1.5, 0, 0), 0.4);
    cloud.insert(cloud.end(), blob2.begin(), blob2.end());
    const DbscanParams params{0.35, static_cast<std::size_t>(3 + trial % 4)};
    DbscanScratch scratch;
    DbscanResult result;
    dbscan_into(cloud, params, scratch, result);
    EXPECT_EQ(result.labels, reference_dbscan_labels(cloud, params)) << "trial " << trial;
    EXPECT_LE(scratch.queue.size(), cloud.size()) << "trial " << trial;
  }
}

// ---- metric axioms ----------------------------------------------------------

class MetricAxioms : public ::testing::TestWithParam<int> {};

TEST_P(MetricAxioms, IdentityAndSymmetry) {
  Rng rng(GetParam());
  const PointCloud a = random_cloud(30, rng);
  const PointCloud b = random_cloud(25, rng, Vec3(0.5, 0.2, -0.1));

  EXPECT_NEAR(hausdorff_distance(a, a), 0.0, 1e-12);
  EXPECT_NEAR(chamfer_distance(a, a), 0.0, 1e-12);
  EXPECT_NEAR(jensen_shannon_divergence(a, a), 0.0, 1e-12);

  EXPECT_DOUBLE_EQ(hausdorff_distance(a, b), hausdorff_distance(b, a));
  EXPECT_DOUBLE_EQ(chamfer_distance(a, b), chamfer_distance(b, a));
  EXPECT_NEAR(jensen_shannon_divergence(a, b), jensen_shannon_divergence(b, a), 1e-12);

  EXPECT_GE(hausdorff_distance(a, b), 0.0);
  EXPECT_GE(chamfer_distance(a, b), 0.0);
  EXPECT_GE(jensen_shannon_divergence(a, b), 0.0);
  EXPECT_LE(jensen_shannon_divergence(a, b), std::log(2.0) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricAxioms, ::testing::Values(1, 2, 3, 4, 5));

TEST(Metrics, HausdorffDominatesChamfer) {
  Rng rng(20);
  const PointCloud a = random_cloud(40, rng);
  const PointCloud b = random_cloud(40, rng, Vec3(1, 0, 0));
  EXPECT_GE(hausdorff_distance(a, b), chamfer_distance(a, b));
}

TEST(Metrics, TranslationIncreasesAllMetrics) {
  Rng rng(21);
  const PointCloud a = random_cloud(50, rng, Vec3(0, 0, 0), 0.2);
  PointCloud near = a;
  PointCloud far = a;
  for (auto& p : near) p.position += Vec3(0.1, 0, 0);
  for (auto& p : far) p.position += Vec3(1.0, 0, 0);

  EXPECT_LT(hausdorff_distance(a, near), hausdorff_distance(a, far));
  EXPECT_LT(chamfer_distance(a, near), chamfer_distance(a, far));
  EXPECT_LE(jensen_shannon_divergence(a, near, 12), jensen_shannon_divergence(a, far, 12) + 1e-9);
}

TEST(Metrics, KnownHausdorffValue) {
  const PointCloud a{make_point(0, 0, 0), make_point(1, 0, 0)};
  const PointCloud b{make_point(0, 0, 0), make_point(1, 2, 0)};
  // directed(a->b): point (1,0,0) is 1.0 from (0,0,0)... actually min(dist
  // to (0,0,0)=1, dist to (1,2,0)=2) = 1. directed(b->a): (1,2,0) is 2 from
  // (1,0,0). So HD = 2.
  EXPECT_DOUBLE_EQ(hausdorff_distance(a, b), 2.0);
}

TEST(Metrics, DisjointCloudsHaveMaximalJsd) {
  const PointCloud a{make_point(0, 0, 0), make_point(0.01, 0, 0)};
  const PointCloud b{make_point(10, 10, 10), make_point(10.01, 10, 10)};
  EXPECT_NEAR(jensen_shannon_divergence(a, b, 8), std::log(2.0), 1e-9);
}

}  // namespace
}  // namespace gp
