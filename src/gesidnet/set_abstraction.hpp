// PointNet++-style multi-scale set abstraction (§IV-C).
//
// One block: farthest-point-sample n centroids; for each scale, ball-query
// up to m neighbours within radius d around each centroid, run a shared MLP
// over [local_xyz, point_features] rows, and max-pool per group. Per-scale
// outputs are concatenated ("multi-scale grouping"), matching the paper's
// description of combining local features f_i of different scales into f_s.
// All scales of a block share one ball query per centroid (ball_query).
//
// Backward is exact: max-pool routes gradients to argmax rows, the MLP
// backpropagates them, and the feature part scatter-adds into the input
// cloud's feature gradient (positions are leaf inputs and need no grad).
//
// forward() (training) and infer() (const, reentrant; nn/layers.hpp) run
// the same grouping and pooling code; forward() only adds the member and
// argmax caches backward() reads. FPS, ball query and pooling never look
// outside one sample, so each output row depends only on its own sample.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gesidnet/batch.hpp"
#include "nn/layers.hpp"

namespace gp {

/// One grouping scale of a set-abstraction block.
struct ScaleSpec {
  double radius = 0.2;            ///< d_i: ball-query radius
  std::size_t group_size = 8;     ///< m_i: points per group (padded cyclically)
  std::vector<std::size_t> mlp;   ///< hidden widths of the shared MLP
};

/// The ball query of one set-abstraction level, shared by all its scales.
/// For each centroid row it scans the centroid's sample (the `num_points`
/// rows holding it) once at the widest radius and keeps the nearest
/// max(m_s) hits in (d², row) order. Scale s reads the prefix of those hits
/// inside its own radius, cut to m_s and padded cyclically; the centroid
/// alone stands in when the prefix is empty. (d², row) is a total order, so
/// each prefix is exactly what a per-scale query with a full sort returns
/// (gesidnet/ball_query_ref.hpp). `members` receives the input rows
/// scale-major: scale s holds centroid_rows.size()·m_s entries, m_s per
/// centroid, after those of the scales before it.
void ball_query(const nn::Tensor& positions, std::size_t num_points,
                std::span<const std::size_t> centroid_rows, std::span<const ScaleSpec> scales,
                std::vector<std::size_t>& members, nn::Workspace& ws);

/// Grouped MLP input: rows(g·m + j) = [xyz(r) − xyz(centroid_rows[g]) |
/// features(r)] with r = member[g·m + j].
void group_rows(const BatchedCloud& in, std::span<const std::size_t> centroid_rows,
                const std::size_t* member, std::size_t m, nn::Tensor& rows);

class SetAbstraction {
 public:
  SetAbstraction(std::size_t num_centroids, std::size_t in_channels,
                 std::vector<ScaleSpec> scales, Rng& rng, const std::string& name);

  /// in: (B*N) rows; out: (B*num_centroids) rows with concatenated scales.
  BatchedCloud forward(const BatchedCloud& in, bool training);
  /// Inference-mode forward into `out`; temporaries from `ws`.
  void infer(const BatchedCloud& in, BatchedCloud& out, nn::Workspace& ws) const;

  /// grad wrt out.features -> grad wrt in.features (same shape as input).
  nn::Tensor backward(const nn::Tensor& grad_out_features);

  std::vector<nn::Parameter*> parameters();
  std::vector<nn::Parameter*> buffers();
  /// Frees the forward caches and grouping temporaries (nn::Layer's
  /// release_caches()); the next forward() rebuilds them.
  void release_caches();
  std::size_t out_channels() const { return out_channels_; }
  std::size_t num_centroids() const { return num_centroids_; }

  /// Fuses every per-scale shared MLP for inference (nn/fused.hpp);
  /// irreversible, forward-only afterwards. Mode per nn/quant.hpp.
  void fuse_inference(nn::QuantMode mode = nn::QuantMode::kOff) {
    for (auto& mlp : mlps_) mlp->fuse_inference(mode);
  }

 private:
  /// FPS → one shared ball query → per scale: grouping →
  /// `run_mlp(s, rows, activated)` → max pool: the one pass behind forward()
  /// and infer(). Training passes `members` and `argmax` (one table per
  /// scale) to keep what backward() reads; inference passes nullptr.
  template <typename RunMlp>
  void abstract(const BatchedCloud& in, BatchedCloud& out, nn::Workspace& ws,
                std::vector<std::size_t>* members, std::vector<std::size_t>* argmax,
                RunMlp&& run_mlp) const;

  std::size_t num_centroids_;
  std::size_t in_channels_;
  std::vector<ScaleSpec> scales_;
  std::vector<std::unique_ptr<nn::Sequential>> mlps_;
  std::vector<std::size_t> scale_out_channels_;
  std::size_t out_channels_ = 0;

  // Forward caches.
  std::vector<std::size_t> members_;              ///< ball_query's input rows
  /// Per scale: winning row per (group, channel). forward() passes data(),
  /// so the outer vector keeps one entry per scale for the model's life.
  std::vector<std::vector<std::size_t>> argmax_;
  std::size_t in_rows_ = 0;
  std::size_t batch_ = 0;
  nn::Workspace train_ws_;  ///< forward()'s grouping temporaries
};

/// Global "group all" stage: per sample, concatenates [xyz, features] of
/// every point, applies a shared MLP and max-pools over the sample,
/// producing one level-feature vector per sample (the F^k of Eq. 2).
class GroupAll {
 public:
  GroupAll(std::size_t in_channels, std::vector<std::size_t> mlp, Rng& rng,
           const std::string& name);

  /// in: (B*N x C) -> out: (B x C_out).
  nn::Tensor forward(const BatchedCloud& in, bool training);
  /// Inference-mode forward into `out`; temporaries from `ws`.
  void infer(const BatchedCloud& in, nn::Tensor& out, nn::Workspace& ws) const;
  /// grad (B x C_out) -> grad wrt in.features (B*N x C).
  nn::Tensor backward(const nn::Tensor& grad_output);

  std::vector<nn::Parameter*> parameters();
  std::vector<nn::Parameter*> buffers();
  /// Frees the forward caches and row temporaries; the next forward()
  /// rebuilds them.
  void release_caches();
  std::size_t out_channels() const { return out_channels_; }

  /// Fuses the shared MLP for inference (nn/fused.hpp); irreversible.
  /// Mode per nn/quant.hpp.
  void fuse_inference(nn::QuantMode mode = nn::QuantMode::kOff) { mlp_->fuse_inference(mode); }

 private:
  /// [xyz | features] rows → `run_mlp(rows, activated)` → per-sample max
  /// pool: the one pass behind forward() and infer().
  template <typename RunMlp>
  void group_all(const BatchedCloud& in, nn::Tensor& out, nn::Workspace& ws,
                 std::size_t* argmax, RunMlp&& run_mlp) const;

  std::size_t in_channels_;
  std::unique_ptr<nn::Sequential> mlp_;
  std::size_t out_channels_ = 0;
  std::vector<std::size_t> argmax_;
  std::size_t batch_ = 0;
  std::size_t num_points_ = 0;
  nn::Workspace train_ws_;  ///< forward()'s row temporaries
};

}  // namespace gp
