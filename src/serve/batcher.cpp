#include "serve/batcher.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp::serve {

namespace {

/// ns → µs with saturation (health timestamps may be 0 = unknown).
std::uint64_t sat_us(std::uint64_t later_ns, std::uint64_t earlier_ns) {
  if (earlier_ns == 0 || later_ns <= earlier_ns) return 0;
  return (later_ns - earlier_ns) / 1000;
}

}  // namespace

MicroBatcher::MicroBatcher(const ServeConfig& config, ModelRegistry& registry,
                           exec::ExecContext& ctx, health::HealthMonitor* monitor)
    : config_(&config), registry_(&registry), ctx_(&ctx), monitor_(monitor) {}

void MicroBatcher::submit(std::vector<SegmentPtr>& segments) {
  if (segments.empty()) return;
  const Clock::time_point now = Clock::now();
  const std::uint64_t submit_ns =
      monitor_ != nullptr && monitor_->enabled() ? monotonic_ns() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (SegmentPtr& segment : segments) {
    queue_.push_back(Entry{std::move(segment), now, submit_ns});
  }
  segments.clear();
}

bool MicroBatcher::should_flush(Clock::time_point now) const {
  const std::size_t depth = queue_.size() - queue_head_;
  if (depth == 0) return false;
  if (depth >= config_->batch_max) return true;
  const auto age = std::chrono::duration_cast<std::chrono::microseconds>(
      now - queue_[queue_head_].arrived);
  return static_cast<std::uint64_t>(age.count()) >= config_->batch_wait_us;
}

std::vector<ServeResult> MicroBatcher::poll(bool force) {
  std::vector<ServeResult> results;
  for (;;) {
    scratch_.entries.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      const std::size_t depth = queue_.size() - queue_head_;
      if (depth == 0) break;
      if (!force && !should_flush(Clock::now())) break;
      const std::size_t take = std::min(depth, config_->batch_max);
      for (std::size_t i = 0; i < take; ++i) {
        scratch_.entries.push_back(std::move(queue_[queue_head_ + i]));
      }
      queue_head_ += take;
      if (queue_head_ == queue_.size()) {
        // Ring emptied: recycle the slot storage (moved-out entries hold
        // null SegmentPtrs, so clear() frees nothing).
        queue_.clear();
        queue_head_ = 0;
      }
    }
    run_batch_into(results);
    scratch_.entries.clear();  // returns the pooled segments
  }
  return results;
}

void MicroBatcher::run_batch_into(std::vector<ServeResult>& results) {
  GP_SPAN("serve.batch");
  const Clock::time_point start = Clock::now();
  const bool health_on = monitor_ != nullptr && monitor_->enabled();
  const std::uint64_t flush_start_ns = health_on ? monotonic_ns() : 0;
  std::uint64_t forward_ns = 0;  ///< the decide_batch call (shared by the batch)
  std::vector<Entry>& batch = scratch_.entries;
  static obs::Histogram& batch_size_hist = obs::histogram("gp.serve.batch.size");
  batch_size_hist.observe(static_cast<double>(batch.size()));

  // One snapshot for the whole batch: a publish() landing mid-flush can
  // never split a batch across model generations.
  std::shared_ptr<ModelSnapshot> snapshot = registry_->current();
  const std::uint64_t version = snapshot != nullptr ? snapshot->version : 0;

  const std::size_t base = results.size();
  results.resize(base + batch.size());
  Stats delta;  // this flush's events, added to stats_ under one lock
  delta.batches = 1;
  delta.segments = batch.size();

  // Pass 0: typed dispositions that never touch a model. `live` keeps the
  // batch indices that go on to decide_batch, `rows` their variants.
  std::vector<std::size_t>& live = scratch_.live;
  live.clear();
  scratch_.counts.clear();
  scratch_.rows.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PendingSegment& seg = *batch[i].segment;
    ServeResult& r = results[base + i];
    r = ServeResult{};
    r.session_id = seg.session_id;
    r.segment_ordinal = seg.ordinal;
    r.request_id = seg.request_id;
    r.model_version = version;
    if (snapshot == nullptr) {
      // No published model: a typed refusal, not an exception — the client
      // sees kAbstain and the tally lands in no_model.
      r.gesture = kAbstain;
      r.user = kAbstain;
      r.abstained = true;
      ++delta.no_model;
    } else if (refuse_segment(seg.empty_cloud || seg.variant_count == 0, seg.quality,
                              /*refuse_degraded=*/true)) {
      // Serve always refuses degraded segments (classify() only when the
      // margin is armed): a streaming client is told *why*.
      r.gesture = kAbstain;
      r.user = kAbstain;
      r.abstained = true;
      r.quality_rejected = true;
      ++delta.quality_rejected;
    } else {
      live.push_back(i);
      scratch_.counts.push_back(seg.variant_count);
      for (const auto& sample : seg.active_variants()) scratch_.rows.emplace_back() = sample;
    }
  }

  if (!live.empty()) {
    GesturePrintSystem& system = *snapshot->system;
    const std::uint64_t f0 = health_on ? monotonic_ns() : 0;
    decide_batch(system, scratch_.rows.span(), scratch_.counts, system.config().abstain_margin,
                 scratch_.decide, scratch_.decisions, *ctx_);
    if (health_on) forward_ns += monotonic_ns() - f0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      const InferenceResult& d = scratch_.decisions[k];
      ServeResult& r = results[base + live[k]];
      r.gesture = d.gesture;
      r.user = d.user;
      r.abstained = d.abstained;
      r.gesture_margin = d.gesture_margin;
      r.user_margin = d.user_probabilities.empty() ? 0.0 : d.user_margin;  // 0: no ID model ran
    }
  }

  // Open-set enrollment gate (gp::enroll, DESIGN.md §13): after the user
  // pass, every recognised segment's biometric descriptor is scored against
  // the novelty gallery. A rejected segment keeps its gesture answer but has
  // the user answer withheld — the hook buffers it as enrollment evidence.
  // gate() is read-only within the tick, so the verdict is independent of
  // shard count and batch composition.
  if (enroll_ != nullptr) {
    for (const std::size_t i : live) {
      const PendingSegment& seg = *batch[i].segment;
      ServeResult& r = results[base + i];
      if (r.gesture < 0 || !seg.has_biometrics) continue;
      if (enroll_->gate(seg, r)) {
        r.user = kAbstain;
        r.abstained = true;
        r.novelty_rejected = true;
        ++delta.novelty_rejected;
      }
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (results[base + i].abstained) ++delta.abstained;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ += delta;
  }
  if (snapshot != nullptr && snapshot->quant == nn::QuantMode::kInt8) {
    GP_COUNTER_ADD("gp.serve.batches.quant", 1);
  }
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
  static obs::Histogram& batch_latency_hist = obs::histogram("gp.serve.batch.latency_us");
  batch_latency_hist.observe(static_cast<double>(elapsed.count()));

  if (health_on) {
    // Per-request stage breakdown (DESIGN.md §10). Forward/epilogue are
    // batch-level costs shared by every member; the waits are per-request.
    const std::uint64_t flush_end_ns = monotonic_ns();
    const std::uint64_t flush_us = sat_us(flush_end_ns, flush_start_ns);
    const std::uint64_t forward_us = forward_ns / 1000;
    const std::uint64_t epilogue_us = flush_us > forward_us ? flush_us - forward_us : 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PendingSegment& seg = *batch[i].segment;
      health::RequestSample sample;
      sample.request_id = seg.request_id;
      sample.session_id = seg.session_id;
      sample.ordinal = seg.ordinal;
      sample.stage_us[static_cast<std::size_t>(health::Stage::kAdmissionWait)] =
          sat_us(seg.drained_ns, seg.admit_ns);
      sample.stage_us[static_cast<std::size_t>(health::Stage::kQueueWait)] =
          sat_us(batch[i].submit_ns, seg.drained_ns);
      sample.stage_us[static_cast<std::size_t>(health::Stage::kBatchWait)] =
          sat_us(flush_start_ns, batch[i].submit_ns);
      sample.stage_us[static_cast<std::size_t>(health::Stage::kForward)] = forward_us;
      sample.stage_us[static_cast<std::size_t>(health::Stage::kEpilogue)] = epilogue_us;
      sample.total_us = seg.admit_ns != 0 ? sat_us(flush_end_ns, seg.admit_ns)
                                          : sat_us(flush_end_ns, batch[i].submit_ns);
      monitor_->record_request(sample, version);
    }
    monitor_->record_batch(batch.size(), version);
  }
}

std::size_t MicroBatcher::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() - queue_head_;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace gp::serve
