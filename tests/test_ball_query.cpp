// Differential battery for the level-shared ball query (DESIGN.md §11).
//
// gp::ball_query runs one query per centroid at a level's widest radius and
// lets every scale read a prefix of it; gp::group_rows builds the grouped
// MLP input from the member rows. Both are pinned bit for bit against the
// retained per-scale reference in src/gesidnet/ball_query_ref.hpp (full
// scan, full sort, cyclic padding) over a grid of scale sets (nested, equal
// and unordered radii; small-scale group sizes below and above the large
// scale's), cloud sizes below and above the group sizes, clouds with
// duplicated and lattice points (so d² ties are broken by row), and batch
// sizes 1, 3 and 7. scripts/verify.sh re-runs this binary under
// -DGP_SANITIZE=address with the rest of the `gemm` label.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gesidnet/ball_query_ref.hpp"
#include "gesidnet/set_abstraction.hpp"

namespace gp {
namespace {

enum class CloudKind { kUniform, kDuplicated, kLattice };

std::string kind_name(CloudKind kind) {
  switch (kind) {
    case CloudKind::kUniform: return "uniform";
    case CloudKind::kDuplicated: return "duplicated";
    case CloudKind::kLattice: return "lattice";
  }
  return "?";
}

BatchedCloud make_cloud(std::size_t batch, std::size_t points, CloudKind kind, Rng& rng) {
  BatchedCloud cloud;
  cloud.batch = batch;
  cloud.num_points = points;
  cloud.positions.resize(batch * points, 3);
  cloud.features.resize(batch * points, 4);
  for (std::size_t r = 0; r < batch * points; ++r) {
    float* p = cloud.positions.row(r);
    const std::size_t i = r % points;
    if (kind == CloudKind::kDuplicated && i > 0 && rng.uniform(0.0, 1.0) < 0.4) {
      // Copy an earlier point of the same sample: equal d² to every centroid.
      const std::size_t src = r - 1 - rng.index(i);
      std::memcpy(p, cloud.positions.row(src), 3 * sizeof(float));
    } else if (kind == CloudKind::kLattice) {
      // Multiples of 1/8 are exact in float, so mirrored neighbours of a
      // centroid sit at exactly equal d².
      for (std::size_t c = 0; c < 3; ++c) {
        p[c] = static_cast<float>(rng.uniform_int(-4, 4)) * 0.125f;
      }
    } else {
      for (std::size_t c = 0; c < 3; ++c) p[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    for (std::size_t c = 0; c < 4; ++c) {
      cloud.features.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return cloud;
}

/// A few centroid rows per sample, drawn from that sample (repeats allowed,
/// as FPS repeats centroids cyclically on clouds smaller than its count).
std::vector<std::size_t> pick_centroids(const BatchedCloud& cloud, Rng& rng) {
  std::vector<std::size_t> rows;
  for (std::size_t b = 0; b < cloud.batch; ++b) {
    for (std::size_t k = 0; k < 6; ++k) {
      rows.push_back(b * cloud.num_points + rng.index(cloud.num_points));
    }
  }
  return rows;
}

ScaleSpec scale(double radius, std::size_t group_size) {
  ScaleSpec s;
  s.radius = radius;
  s.group_size = group_size;
  return s;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.vec().data(), b.vec().data(), a.vec().size() * sizeof(float)) == 0;
}

TEST(BallQuery, SharedQueryMatchesPerScaleReferenceAcrossGrid) {
  const std::vector<std::vector<ScaleSpec>> scale_sets{
      {scale(0.18, 8), scale(0.40, 12)},                  // nested, small m below large
      {scale(0.30, 16), scale(0.60, 4)},                  // nested, small m above large
      {scale(0.35, 6), scale(0.35, 6)},                   // equal radii and sizes
      {scale(0.35, 4), scale(0.35, 9)},                   // equal radii, sizes differ
      {scale(0.70, 8), scale(0.20, 5), scale(0.45, 12)},  // unordered radii
      {scale(0.25, 10)},                                  // one scale
      {scale(1e-6, 4), scale(0.05, 3)},                   // often the centroid alone
  };
  const std::vector<std::size_t> point_counts{1, 3, 5, 40, 128};
  const std::vector<std::size_t> batches{1, 3, 7};
  const std::vector<CloudKind> kinds{CloudKind::kUniform, CloudKind::kDuplicated,
                                     CloudKind::kLattice};

  Rng rng(0xBA11, 1);
  nn::Workspace ws;
  std::vector<std::size_t> members;
  std::vector<std::size_t> ref_member;
  nn::Tensor rows;
  nn::Tensor ref_rows;
  std::size_t compared = 0;
  for (std::size_t set = 0; set < scale_sets.size(); ++set) {
    const std::vector<ScaleSpec>& scales = scale_sets[set];
    for (const std::size_t points : point_counts) {
      for (const std::size_t batch : batches) {
        for (const CloudKind kind : kinds) {
          const BatchedCloud cloud = make_cloud(batch, points, kind, rng);
          const std::vector<std::size_t> centroids = pick_centroids(cloud, rng);
          ball_query(cloud.positions, points, centroids, scales, members, ws);

          std::size_t offset = 0;
          for (std::size_t s = 0; s < scales.size(); ++s) {
            const std::size_t m = scales[s].group_size;
            ball_query_ref(cloud, centroids, scales[s].radius, m, ref_member, ref_rows);
            group_rows(cloud, centroids, members.data() + offset, m, rows);
            const std::vector<std::size_t> got(members.begin() + offset,
                                               members.begin() + offset + centroids.size() * m);
            const std::string where = "set " + std::to_string(set) + " scale " +
                                      std::to_string(s) + " points " + std::to_string(points) +
                                      " batch " + std::to_string(batch) + " " + kind_name(kind);
            EXPECT_EQ(got, ref_member) << where;
            EXPECT_TRUE(bitwise_equal(rows, ref_rows)) << where;
            offset += centroids.size() * m;
            ++compared;
          }
          EXPECT_EQ(members.size(), offset);
        }
      }
    }
  }
  std::size_t scale_count = 0;
  for (const auto& scales : scale_sets) scale_count += scales.size();
  EXPECT_EQ(compared, scale_count * point_counts.size() * batches.size() * kinds.size());
}

// Ties in d² are real on duplicated points: the nearest-first order must
// break them by row, or a scale's prefix could differ from its own sort.
TEST(BallQuery, EqualDistancesResolveByRow) {
  BatchedCloud cloud;
  cloud.batch = 1;
  cloud.num_points = 5;
  cloud.positions.resize(5, 3);
  cloud.features.resize(5, 1);
  const float xs[5] = {0.0f, 0.125f, -0.125f, 0.125f, 0.25f};
  for (std::size_t r = 0; r < 5; ++r) {
    cloud.positions.at(r, 0) = xs[r];
    cloud.positions.at(r, 1) = 0.0f;
    cloud.positions.at(r, 2) = 0.0f;
    cloud.features.at(r, 0) = static_cast<float>(r);
  }
  const std::vector<std::size_t> centroids{0};
  const std::vector<ScaleSpec> scales{scale(0.2, 3), scale(0.3, 6)};
  nn::Workspace ws;
  std::vector<std::size_t> members;
  ball_query(cloud.positions, 5, centroids, scales, members, ws);
  // Scale 0: rows 1, 2, 3 tie at d² = 1/64; row 0 is nearest.
  // Scale 1 adds row 4 and pads cyclically to 6.
  const std::vector<std::size_t> want{0, 1, 2, 0, 1, 2, 3, 4, 0};
  EXPECT_EQ(members, want);
}

}  // namespace
}  // namespace gp
