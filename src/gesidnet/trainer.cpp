#include "gesidnet/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp {

TrainStats train_classifier(PointCloudClassifier& model, const LabeledSamples& data,
                            const TrainConfig& config, exec::ExecContext& ctx) {
  GP_SPAN("train.fit");
  check_arg(data.samples.size() == data.labels.size(), "sample/label count mismatch");
  check_arg(!data.samples.empty(), "empty training set");
  check_arg(config.batch_size >= 2, "batch size must be >= 2 (batch norm)");

  Rng rng(config.seed, 0x7f4a7c15ULL);
  nn::Adam optimizer(config.head_only ? model.head_parameters() : model.parameters(), config.lr,
                     0.9, 0.999, 1e-8, config.weight_decay);

  std::vector<std::size_t> order(data.samples.size());
  std::iota(order.begin(), order.end(), 0);

  // Scratch reused across every step of every epoch: the minibatch tensors
  // keep their allocation (Tensor::resize), only their contents change.
  std::vector<const FeaturizedSample*> batch_samples;
  std::vector<int> batch_labels;
  BatchedCloud batch;

  TrainStats stats;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    GP_SPAN("train.epoch");
    const std::uint64_t epoch_t0 = obs::metrics_enabled() ? monotonic_ns() : 0;
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t steps = 0;
    std::size_t samples_seen = 0;

    for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
      GP_SPAN("train.step");
      const std::size_t count = std::min(config.batch_size, order.size() - begin);
      if (count < 2) break;  // batch-norm needs a real batch; drop remainder

      batch_samples.clear();
      batch_labels.clear();
      batch_samples.reserve(count);
      batch_labels.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        batch_samples.push_back(&data.samples[order[begin + i]]);
        batch_labels.push_back(data.labels[order[begin + i]]);
      }

      // The forward/backward pass below is data-parallel across the
      // minibatch: batched activations are sample-major, so the row-panel
      // kernels in gp::nn split every layer over `ctx`'s pool while keeping
      // the serial accumulation order (see DESIGN.md "Execution model").
      make_batch(batch_samples, batch);
      epoch_loss += config.head_only ? model.train_step_head_only(batch, batch_labels)
                                     : model.train_step(batch, batch_labels);
      optimizer.step();
      ++steps;
      samples_seen += count;
    }

    stats.epoch_loss.push_back(steps > 0 ? epoch_loss / static_cast<double>(steps) : 0.0);
    optimizer.set_lr(optimizer.lr() * config.lr_decay);
    if (obs::metrics_enabled()) {
      GP_COUNTER_ADD("gp.train.epochs", 1);
      GP_COUNTER_ADD("gp.train.steps", steps);
      GP_COUNTER_ADD("gp.train.samples", samples_seen);
      static obs::Gauge& loss_gauge = obs::gauge("gp.train.epoch_loss");
      loss_gauge.set(stats.epoch_loss.back());
      const double epoch_s =
          static_cast<double>(monotonic_ns() - epoch_t0) * 1e-9;
      if (epoch_s > 0.0) {
        static obs::Gauge& throughput = obs::gauge("gp.train.samples_per_s");
        throughput.set(static_cast<double>(samples_seen) / epoch_s);
      }
    }
    if (config.verbose) {
      log_info() << model.name() << " epoch " << epoch + 1 << "/" << config.epochs
                 << " loss=" << stats.epoch_loss.back();
    }
  }

  // The last step's backward caches are dead weight in a fitted model
  // (several MB per GesIDNet); the accuracy pass below is the cache-free
  // inference path.
  model.release_caches();
  const nn::Tensor logits = predict_logits(model, data.samples, 64, ctx);
  stats.train_accuracy = nn::accuracy(logits, data.labels);
  return stats;
}

nn::Tensor predict_logits(const PointCloudClassifier& model,
                          const std::vector<FeaturizedSample>& samples,
                          std::size_t batch_size, exec::ExecContext& ctx) {
  return predict_logits(model, std::span<const FeaturizedSample>(samples), batch_size, ctx);
}

nn::Tensor predict_logits(const PointCloudClassifier& model,
                          std::span<const FeaturizedSample> samples, std::size_t batch_size,
                          exec::ExecContext& ctx) {
  nn::Tensor all;
  predict_logits_into(model, samples, all, batch_size, ctx);
  return all;
}

void predict_logits_into(const PointCloudClassifier& model,
                         std::span<const FeaturizedSample> samples, nn::Tensor& all,
                         std::size_t batch_size, exec::ExecContext& ctx) {
  std::vector<InferLane> lanes;
  predict_logits_into(model, samples, all, lanes, ctx, batch_size);
}

void predict_logits_into(const PointCloudClassifier& model,
                         std::span<const FeaturizedSample> samples, nn::Tensor& all,
                         std::vector<InferLane>& lanes, exec::ExecContext& ctx,
                         std::size_t batch_size) {
  GP_SPAN("gesidnet.predict");
  check_arg(!samples.empty(), "predict over empty sample list");
  check_arg(batch_size > 0, "predict batch size must be > 0");
  const std::size_t n = samples.size();
  // A region lasts as long as its slowest lane, and a lane of one sample has
  // nothing to amortise its wake-up against: on a shared host one
  // descheduled lane stalls the whole forward. So every lane gets at least
  // kMinSamplesPerLane samples, and a lone segment's TTA rows run inline.
  constexpr std::size_t kMinSamplesPerLane = 2;
  const std::size_t num_lanes = std::clamp<std::size_t>(
      std::min(ctx.threads(), n / kMinSamplesPerLane), 1, n);
  if (lanes.size() < num_lanes) lanes.resize(num_lanes);
  all.resize(n, model.num_classes());

  // Lane l owns the contiguous samples [n·l/L, n·(l+1)/L) and writes only
  // their rows of `all`; the model is shared read-only.
  const auto run_lane = [&](std::size_t l) {
    const exec::SerialScope serial;
    InferLane& lane = lanes[l];
    const std::size_t end = n * (l + 1) / num_lanes;
    for (std::size_t begin = n * l / num_lanes; begin < end; begin += batch_size) {
      const std::size_t count = std::min(batch_size, end - begin);
      make_batch(samples, begin, count, lane.batch);
      model.infer_into(lane.batch, lane.logits, lane.ws);
      check(lane.logits.rows() == count && lane.logits.cols() == all.cols(),
            "infer_into produced a logit block of the wrong shape");
      std::copy(lane.logits.vec().begin(), lane.logits.vec().end(), all.row(begin));
    }
  };
  // One captured reference keeps the chunk functor in std::function's
  // inline storage: dispatching the lanes allocates nothing.
  ctx.run_chunks(num_lanes, [&run_lane](std::size_t l) { run_lane(l); });
}

}  // namespace gp
