#pragma once
// Retained naive ball query — the bitwise ground truth for gp::ball_query.
//
// This is the per-scale query set abstraction ran before one query per
// level served every scale: for each centroid, a full scan of its sample at
// this scale's radius, a full std::sort of the hits by (d², row), a cut to
// m, the centroid alone when nothing is in range, and cyclic padding to m.
// It writes the member rows and the grouped [local_xyz | features] rows the
// old loop built. test_ball_query compares gp::ball_query + gp::group_rows
// against it bit for bit; keep it header-only and deliberately boring.
#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "gesidnet/batch.hpp"

namespace gp {

inline void ball_query_ref(const BatchedCloud& in, std::span<const std::size_t> centroid_rows,
                           double radius, std::size_t m, std::vector<std::size_t>& member,
                           nn::Tensor& rows) {
  const std::size_t channels = in.channels();
  member.resize(centroid_rows.size() * m);
  rows.resize(centroid_rows.size() * m, 3 + channels);
  const double r2 = radius * radius;
  std::vector<std::pair<double, std::size_t>> hits;
  for (std::size_t g = 0; g < centroid_rows.size(); ++g) {
    const std::size_t centroid_row = centroid_rows[g];
    const float* cp = in.positions.row(centroid_row);
    const std::size_t base = centroid_row / in.num_points * in.num_points;
    hits.clear();
    for (std::size_t i = 0; i < in.num_points; ++i) {
      const float* pp = in.positions.row(base + i);
      const double dx = pp[0] - cp[0];
      const double dy = pp[1] - cp[1];
      const double dz = pp[2] - cp[2];
      const double d2 = dx * dx + dy * dy + dz * dz;
      if (d2 <= r2) hits.emplace_back(d2, base + i);
    }
    if (hits.empty()) hits.emplace_back(0.0, centroid_row);
    std::sort(hits.begin(), hits.end());
    if (hits.size() > m) hits.resize(m);

    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t src = hits[j % hits.size()].second;
      member[g * m + j] = src;
      float* dst = rows.row(g * m + j);
      const float* pp = in.positions.row(src);
      dst[0] = pp[0] - cp[0];
      dst[1] = pp[1] - cp[1];
      dst[2] = pp[2] - cp[2];
      const float* pf = in.features.row(src);
      for (std::size_t c = 0; c < channels; ++c) dst[3 + c] = pf[c];
    }
  }
}

}  // namespace gp
