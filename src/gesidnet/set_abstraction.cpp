#include "gesidnet/set_abstraction.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace gp {

namespace {

// Farthest point sampling over raw position rows [start_row, start_row+n)
// into `selected`. Deterministic (seeded at row 0) so inference is
// repeatable; `min_dist2` is the caller's reused distance row.
void fps_rows(const nn::Tensor& positions, std::size_t start_row, std::size_t n,
              std::size_t count, std::vector<std::size_t>& selected,
              std::vector<double>& min_dist2) {
  selected.clear();
  if (count >= n) {
    for (std::size_t i = 0; i < n; ++i) selected.push_back(start_row + i);
    return;
  }
  min_dist2.assign(n, std::numeric_limits<double>::infinity());
  std::size_t current = 0;
  const auto dist2 = [&](std::size_t a, std::size_t b) {
    const float* pa = positions.row(start_row + a);
    const float* pb = positions.row(start_row + b);
    const double dx = pa[0] - pb[0];
    const double dy = pa[1] - pb[1];
    const double dz = pa[2] - pb[2];
    return dx * dx + dy * dy + dz * dz;
  };
  for (std::size_t round = 0; round < count; ++round) {
    selected.push_back(start_row + current);
    std::size_t far = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d2 = dist2(i, current);
      min_dist2[i] = std::min(min_dist2[i], d2);
      if (min_dist2[i] > best) {
        best = min_dist2[i];
        far = i;
      }
    }
    current = far;
  }
}

}  // namespace

void ball_query(const nn::Tensor& positions, std::size_t num_points,
                std::span<const std::size_t> centroid_rows, std::span<const ScaleSpec> scales,
                std::vector<std::size_t>& members, nn::Workspace& ws) {
  const nn::Workspace::Frame frame(ws);
  auto& hits = ws.take<std::vector<std::pair<double, std::size_t>>>();
  double widest_r2 = 0.0;
  std::size_t most = 0;
  std::size_t total = 0;
  for (const ScaleSpec& scale : scales) {
    widest_r2 = std::max(widest_r2, scale.radius * scale.radius);
    most = std::max(most, scale.group_size);
    total += scale.group_size;
  }
  check_arg(most > 0, "ball_query needs a scale with a positive group size");
  const std::size_t groups = centroid_rows.size();
  members.resize(groups * total);
  hits.resize(most);

  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t centroid_row = centroid_rows[g];
    const float* cp = positions.row(centroid_row);
    const std::size_t base = centroid_row / num_points * num_points;
    // hits[0, kept): the nearest in-range points so far, in (d², row)
    // order. Rows arrive ascending, so a new point goes after every kept
    // point at its own d².
    std::size_t kept = 0;
    for (std::size_t i = 0; i < num_points; ++i) {
      const float* pp = positions.row(base + i);
      const double dx = pp[0] - cp[0];
      const double dy = pp[1] - cp[1];
      const double dz = pp[2] - cp[2];
      const double d2 = dx * dx + dy * dy + dz * dz;
      if (!(d2 <= widest_r2) || (kept == most && !(d2 < hits[most - 1].first))) continue;
      std::size_t pos = kept < most ? kept++ : most - 1;
      for (; pos > 0 && d2 < hits[pos - 1].first; --pos) hits[pos] = hits[pos - 1];
      hits[pos] = {d2, base + i};
    }

    std::size_t offset = 0;
    for (const ScaleSpec& scale : scales) {
      const std::size_t m = scale.group_size;
      const double r2 = scale.radius * scale.radius;
      std::size_t k = 0;
      while (k < std::min(m, kept) && hits[k].first <= r2) ++k;
      std::size_t* dst = members.data() + offset + g * m;
      for (std::size_t j = 0; j < m; ++j) {
        dst[j] = k == 0 ? centroid_row : hits[j % k].second;  // cyclic padding
      }
      offset += groups * m;
    }
  }
}

void group_rows(const BatchedCloud& in, std::span<const std::size_t> centroid_rows,
                const std::size_t* member, std::size_t m, nn::Tensor& rows) {
  const std::size_t channels = in.channels();
  rows.resize(centroid_rows.size() * m, 3 + channels);
  for (std::size_t g = 0; g < centroid_rows.size(); ++g) {
    const float* cp = in.positions.row(centroid_rows[g]);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t src = member[g * m + j];
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

SetAbstraction::SetAbstraction(std::size_t num_centroids, std::size_t in_channels,
                               std::vector<ScaleSpec> scales, Rng& rng, const std::string& name)
    : num_centroids_(num_centroids), in_channels_(in_channels), scales_(std::move(scales)) {
  check_arg(num_centroids_ > 0, "set abstraction needs centroids");
  check_arg(!scales_.empty(), "set abstraction needs at least one scale");
  for (std::size_t s = 0; s < scales_.size(); ++s) {
    const ScaleSpec& scale = scales_[s];
    check_arg(scale.group_size > 0 && !scale.mlp.empty() && scale.radius > 0.0,
              "bad scale spec");
    mlps_.push_back(nn::make_mlp(3 + in_channels_, scale.mlp, rng, /*batch_norm=*/true,
                                 name + ".s" + std::to_string(s)));
    scale_out_channels_.push_back(scale.mlp.back());
    out_channels_ += scale.mlp.back();
  }
  argmax_.resize(scales_.size());
}

template <typename RunMlp>
void SetAbstraction::abstract(const BatchedCloud& in, BatchedCloud& out, nn::Workspace& ws,
                              std::vector<std::size_t>* members,
                              std::vector<std::size_t>* argmax, RunMlp&& run_mlp) const {
  check_arg(in.channels() == in_channels_, "set abstraction channel mismatch");
  check_arg(in.num_points > 0 && in.batch > 0, "empty batch");
  const nn::Workspace::Frame frame(ws);

  out.batch = in.batch;
  out.num_points = num_centroids_;
  out.positions.resize(in.batch * num_centroids_, 3);
  out.features.resize(in.batch * num_centroids_, out_channels_);

  // Centroids: FPS per sample, shared across scales.
  const std::size_t groups = in.batch * num_centroids_;
  std::vector<std::size_t>& centroid_rows = ws.take<std::vector<std::size_t>>();
  std::vector<std::size_t>& selected = ws.take<std::vector<std::size_t>>();
  std::vector<double>& min_dist2 = ws.take<std::vector<double>>();
  centroid_rows.resize(groups);
  for (std::size_t b = 0; b < in.batch; ++b) {
    fps_rows(in.positions, b * in.num_points, in.num_points, num_centroids_, selected, min_dist2);
    for (std::size_t k = 0; k < num_centroids_; ++k) {
      // If the cloud has fewer points than centroids, repeat cyclically.
      const std::size_t row = selected[k % selected.size()];
      const std::size_t out_row = b * num_centroids_ + k;
      centroid_rows[out_row] = row;
      for (std::size_t c = 0; c < 3; ++c) {
        out.positions.at(out_row, c) = in.positions.at(row, c);
      }
    }
  }

  std::vector<std::size_t>& member =
      members != nullptr ? *members : ws.take<std::vector<std::size_t>>();
  ball_query(in.positions, in.num_points, centroid_rows, scales_, member, ws);

  nn::Tensor& rows = ws.take<nn::Tensor>();
  nn::Tensor& activated = ws.take<nn::Tensor>();
  std::size_t channel_offset = 0;
  std::size_t member_offset = 0;
  for (std::size_t s = 0; s < scales_.size(); ++s) {
    const std::size_t m = scales_[s].group_size;
    group_rows(in, centroid_rows, member.data() + member_offset, m, rows);
    member_offset += groups * m;

    // Shared MLP + per-group channel-wise max pool.
    run_mlp(s, rows, activated);
    std::size_t* winners = nullptr;
    if (argmax != nullptr) {
      argmax[s].resize(groups * scale_out_channels_[s]);
      winners = argmax[s].data();
    }
    nn::max_pool_rows(activated, groups, m, out.features, channel_offset, winners);
    channel_offset += scale_out_channels_[s];
  }
}

BatchedCloud SetAbstraction::forward(const BatchedCloud& in, bool training) {
  batch_ = in.batch;
  in_rows_ = in.batch * in.num_points;
  BatchedCloud out;
  abstract(in, out, train_ws_, &members_, argmax_.data(),
           [&](std::size_t s, const nn::Tensor& rows, nn::Tensor& activated) {
             activated = mlps_[s]->forward(rows, training);
           });
  return out;
}

void SetAbstraction::infer(const BatchedCloud& in, BatchedCloud& out,
                           nn::Workspace& ws) const {
  abstract(in, out, ws, nullptr, nullptr,
           [&](std::size_t s, const nn::Tensor& rows, nn::Tensor& activated) {
             mlps_[s]->infer(rows, activated, ws);
           });
}

nn::Tensor SetAbstraction::backward(const nn::Tensor& grad_out_features) {
  const std::size_t groups = batch_ * num_centroids_;
  check_arg(grad_out_features.rows() == groups && grad_out_features.cols() == out_channels_,
            "set abstraction backward shape mismatch");

  nn::Tensor grad_in(in_rows_, in_channels_);
  std::size_t channel_offset = 0;
  const std::size_t* member = members_.data();
  for (std::size_t s = 0; s < scales_.size(); ++s) {
    const std::size_t cs = scale_out_channels_[s];
    const std::size_t rows = groups * scales_[s].group_size;

    // Un-pool: route each output channel's gradient to its argmax row.
    nn::Tensor rows_grad(rows, cs);
    for (std::size_t g = 0; g < groups; ++g) {
      const float* src = grad_out_features.row(g);
      for (std::size_t c = 0; c < cs; ++c) {
        rows_grad.at(argmax_[s][g * cs + c], c) += src[channel_offset + c];
      }
    }

    // Through the shared MLP, then scatter the feature part into the input.
    const nn::Tensor rows_in_grad = mlps_[s]->backward(rows_grad);
    for (std::size_t r = 0; r < rows; ++r) {
      const float* g = rows_in_grad.row(r);
      float* dst = grad_in.row(member[r]);
      for (std::size_t c = 0; c < in_channels_; ++c) dst[c] += g[3 + c];
    }
    member += rows;
    channel_offset += cs;
  }
  return grad_in;
}

std::vector<nn::Parameter*> SetAbstraction::parameters() {
  std::vector<nn::Parameter*> out;
  for (auto& mlp : mlps_) {
    for (nn::Parameter* p : mlp->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<nn::Parameter*> SetAbstraction::buffers() {
  std::vector<nn::Parameter*> out;
  for (auto& mlp : mlps_) {
    for (nn::Parameter* p : mlp->buffers()) out.push_back(p);
  }
  return out;
}

// ---- GroupAll --------------------------------------------------------------

GroupAll::GroupAll(std::size_t in_channels, std::vector<std::size_t> mlp, Rng& rng,
                   const std::string& name)
    : in_channels_(in_channels) {
  check_arg(!mlp.empty(), "GroupAll needs an MLP");
  mlp_ = nn::make_mlp(3 + in_channels_, mlp, rng, /*batch_norm=*/true, name);
  out_channels_ = mlp.back();
}

template <typename RunMlp>
void GroupAll::group_all(const BatchedCloud& in, nn::Tensor& out, nn::Workspace& ws,
                         std::size_t* argmax, RunMlp&& run_mlp) const {
  check_arg(in.channels() == in_channels_, "GroupAll channel mismatch");
  const nn::Workspace::Frame frame(ws);
  nn::Tensor& rows = ws.take<nn::Tensor>();
  nn::Tensor& activated = ws.take<nn::Tensor>();
  rows.resize(in.batch * in.num_points, 3 + in_channels_);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    float* dst = rows.row(r);
    const float* pp = in.positions.row(r);
    dst[0] = pp[0];
    dst[1] = pp[1];
    dst[2] = pp[2];
    const float* pf = in.features.row(r);
    for (std::size_t c = 0; c < in_channels_; ++c) dst[3 + c] = pf[c];
  }

  run_mlp(rows, activated);
  out.resize(in.batch, out_channels_);
  nn::max_pool_rows(activated, in.batch, in.num_points, out, 0, argmax);
}

nn::Tensor GroupAll::forward(const BatchedCloud& in, bool training) {
  batch_ = in.batch;
  num_points_ = in.num_points;
  argmax_.resize(in.batch * out_channels_);
  nn::Tensor out;
  group_all(in, out, train_ws_, argmax_.data(),
            [&](const nn::Tensor& rows, nn::Tensor& activated) {
              activated = mlp_->forward(rows, training);
            });
  return out;
}

void GroupAll::infer(const BatchedCloud& in, nn::Tensor& out, nn::Workspace& ws) const {
  group_all(in, out, ws, nullptr, [&](const nn::Tensor& rows, nn::Tensor& activated) {
    mlp_->infer(rows, activated, ws);
  });
}

nn::Tensor GroupAll::backward(const nn::Tensor& grad_output) {
  check_arg(grad_output.rows() == batch_ && grad_output.cols() == out_channels_,
            "GroupAll backward shape mismatch");
  nn::Tensor rows_grad(batch_ * num_points_, out_channels_);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = grad_output.row(b);
    for (std::size_t c = 0; c < out_channels_; ++c) {
      rows_grad.at(argmax_[b * out_channels_ + c], c) += src[c];
    }
  }
  const nn::Tensor rows_in_grad = mlp_->backward(rows_grad);
  nn::Tensor grad_in(batch_ * num_points_, in_channels_);
  for (std::size_t r = 0; r < grad_in.rows(); ++r) {
    const float* g = rows_in_grad.row(r);
    float* dst = grad_in.row(r);
    for (std::size_t c = 0; c < in_channels_; ++c) dst[c] = g[3 + c];
  }
  return grad_in;
}

std::vector<nn::Parameter*> GroupAll::parameters() { return mlp_->parameters(); }

std::vector<nn::Parameter*> GroupAll::buffers() { return mlp_->buffers(); }

}  // namespace gp
