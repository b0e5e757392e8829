#include "serve/sessions.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "health/flightrec.hpp"
#include "obs/trace.hpp"

namespace gp::serve {

namespace {

/// Seed index for the per-session fault injector chain (distinct from the
/// featurize ordinal chain, which starts at 0).
constexpr std::uint64_t kFaultSeedIndex = 0xFAULL;

}  // namespace

StreamSession::StreamSession(std::uint64_t session_id, const ServeConfig& config,
                             mem::Pool<PendingSegment>& pool)
    : id_(session_id),
      session_seed_(exec::child_seed(config.seed, session_id)),
      config_(&config),
      pool_(&pool),
      segmenter_(config.preprocess.segmentation),
      preprocessor_(config.preprocess) {
  if (config.session_faults.has_value()) {
    faults::FaultConfig fc = *config.session_faults;
    // Per-session fault stream: the same GP_FAULTS spec degrades each
    // client's link independently and reproducibly.
    fc.seed = exec::child_seed(session_seed_, kFaultSeedIndex);
    injector_ = std::make_unique<faults::FaultInjector>(fc);
  }
}

bool StreamSession::push_frame(const FrameView& frame, std::uint64_t tick,
                               std::vector<SegmentPtr>& out, std::uint64_t admit_ns,
                               std::uint64_t drained_ns) {
  if (injector_ != nullptr) {
    // The injector mutates owning frames; materialise the view into the
    // session's recycled copy (faulted ticks are outside the zero-alloc
    // steady-state contract).
    fault_scratch_.frame_index = frame.frame_index;
    fault_scratch_.timestamp = frame.timestamp;
    fault_scratch_.points.assign(frame.points.begin(), frame.points.end());
    std::optional<FrameCloud> delivered = injector_->apply(fault_scratch_);
    if (!delivered.has_value()) {
      // Frame dropped/lost on the degraded link — a health fact, not a
      // result: the injector's own RNG already consumed this decision.
      health::FlightRecorder::global().record(health::EventKind::kFaultDrop, tick, id_);
      return false;
    }
    segmenter_.push(*delivered);
  } else {
    segmenter_.push(frame);
  }
  drain_completed(tick, out, admit_ns, drained_ns);
  return true;
}

void StreamSession::finish(std::uint64_t tick, std::vector<SegmentPtr>& out) {
  segmenter_.finish();
  drain_completed(tick, out);
}

void StreamSession::drain_completed(std::uint64_t tick, std::vector<SegmentPtr>& out,
                                    std::uint64_t admit_ns, std::uint64_t drained_ns) {
  const std::size_t count = segmenter_.completed_count();
  if (count == 0) return;  // the steady-state fast path: nothing completed
  for (std::size_t i = 0; i < count; ++i) {
    const SegmentView view = segmenter_.completed_segment(i);
    SegmentPtr pending = pool_->acquire();
    pending->reset_for_reuse();
    pending->session_id = id_;
    pending->ordinal = ordinal_;
    pending->enqueued_tick = tick;
    // RequestId: FNV-1a over (session, ordinal) — a pure function of the
    // stream, so results carry the same id with health on or off.
    pending->request_id =
        fnv::accumulate_value(fnv::accumulate_value(fnv::kOffsetBasis, id_), ordinal_);
    pending->admit_ns = admit_ns;    // the frame whose push closed the gesture
    pending->drained_ns = drained_ns;
    health::FlightRecorder::global().record(health::EventKind::kSegmentCompleted, tick, id_,
                                            ordinal_, pending->request_id);

    preprocessor_.process_segment_into(view.frames, cloud_scratch_, prep_scratch_);
    pending->quality = cloud_scratch_.quality;
    pending->empty_cloud = cloud_scratch_.points.empty();
    if (pending->quality == SegmentQuality::kGood && !pending->empty_cloud) {
      // Featurize eval_rounds TTA variants now, inside the (parallel) shard
      // drain. RNG chain: child(child(session_seed, ordinal), round) — a pure
      // function of (serve seed, session id, ordinal, round), so the variants
      // are identical for any shard count / thread count / interleaving.
      const std::uint64_t segment_seed = exec::child_seed(session_seed_, ordinal_);
      const int rounds = config_->system.eval_rounds > 0 ? config_->system.eval_rounds : 1;
      for (int r = 0; r < rounds; ++r) {
        const auto slot = static_cast<std::size_t>(r);
        if (slot == pending->variants.size()) pending->variants.emplace_back();
        Rng rng = exec::child_rng(segment_seed, static_cast<std::uint64_t>(r));
        featurize_into(cloud_scratch_, config_->system.prep.features, rng, feat_scratch_,
                       pending->variants[slot]);
      }
      pending->variant_count = static_cast<std::size_t>(rounds);
      if (config_->enroll.enabled) {
        // Enrollment payload: descriptor for the novelty gate plus the
        // cleaned cloud for fine-tune buffering. Both are deterministic
        // per-segment functions (no RNG), so the featurize chain above is
        // untouched and results stay shard/thread-invariant.
        pending->biometrics = biometric_stats(cloud_scratch_);
        pending->has_biometrics = true;
        pending->cloud = cloud_scratch_;
      }
    }
    ++ordinal_;
    out.push_back(std::move(pending));
  }
  segmenter_.clear_completed();
}

void StreamSession::save_state(std::ostream& out) const {
  BinaryWriter w(out, "GPSS");
  w.write_u64(id_);
  w.write_u64(ordinal_);
  segmenter_.save_state(w);
}

void StreamSession::load_state(std::istream& in) {
  BinaryReader r(in, "GPSS");
  const std::uint64_t saved_id = r.read_u64();
  if (saved_id != id_) {
    throw SerializationError("session state: blob is for session " +
                             std::to_string(saved_id) + ", restoring into session " +
                             std::to_string(id_));
  }
  ordinal_ = r.read_u64();
  segmenter_.load_state(r);
}

SessionManager::SessionManager(const ServeConfig& config, health::HealthMonitor* monitor)
    : config_(config), monitor_(monitor) {
  check_arg(config_.shards >= 1, "SessionManager: shards must be >= 1");
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Built once so the per-tick run_chunks call never constructs a callable
  // (std::function construction can allocate).
  drain_fn_ = [this](std::size_t s) { drain_shard(s); };
  if (monitor_ != nullptr && monitor_->enabled()) {
    admit_clock_ns_.store(monotonic_ns(), std::memory_order_relaxed);
  }
}

Admission SessionManager::enqueue(std::uint64_t session_id, const FrameView& frame,
                                  std::uint64_t tick) {
  const bool health_on = monitor_ != nullptr && monitor_->enabled();
  Shard& shard = *shards_[shard_of(session_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.queue.size() >= config_.queue_cap) {
    ++shard.counts.frames_rejected;
    health::FlightRecorder::global().record(health::EventKind::kAdmissionReject, tick,
                                            session_id);
    return Admission::kRejectedQueueFull;
  }
  QueuedFrame qf;
  qf.session_id = session_id;
  if (health_on) qf.admit_ns = admit_clock_ns_.load(std::memory_order_relaxed);
  qf.frame.frame_index = frame.frame_index;
  qf.frame.timestamp = frame.timestamp;
  // The single copy on the frame path: points land in the shard's epoch
  // arena; everything downstream reads this stable view.
  qf.frame.points = shard.arenas[shard.epoch].copy_span(frame.points);
  shard.queue.push_back(qf);
  ++shard.counts.frames_admitted;
  return Admission::kAccepted;
}

void SessionManager::drain_shard(std::size_t s) {
  Shard& shard = *shards_[s];
  const std::uint64_t tick = drain_tick_;
  shard.out_scratch.clear();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Ping-pong flip: producers now write the other arena; the queued views
    // keep referencing the epoch we are about to process (its arena is not
    // reset until the *next* flip, after drain_queue has been cleared).
    shard.epoch = 1 - shard.epoch;
    shard.arenas[shard.epoch].reset();
    shard.drain_queue.swap(shard.queue);
  }
  const std::uint64_t drained_ns =
      monitor_ != nullptr && monitor_->enabled() ? monotonic_ns() : 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> session_lock(shard.session_mu);
    for (const QueuedFrame& qf : shard.drain_queue) {
      if (!session(shard, qf.session_id)
               .push_frame(qf.frame, tick, shard.out_scratch, qf.admit_ns, drained_ns)) {
        ++dropped;
      }
    }
  }
  shard.drain_queue.clear();
  if (dropped > 0) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.counts.fault_drops += dropped;
  }
}

void SessionManager::drain_into(exec::ExecContext& ctx, std::uint64_t tick,
                                std::vector<SegmentPtr>& out) {
  GP_SPAN("serve.sessions.drain");
  drain_tick_ = tick;  // pump/drain are externally serialized
  ctx.run_chunks(shards_.size(), drain_fn_);

  // Concatenate in shard-index order: deterministic for any thread count.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    for (SegmentPtr& p : shard.out_scratch) out.push_back(std::move(p));
    shard.out_scratch.clear();
  }

  // Advance the tick-granular admission clock: frames pushed from here to
  // the next drain are stamped with this boundary.
  if (monitor_ != nullptr && monitor_->enabled()) {
    admit_clock_ns_.store(monotonic_ns(), std::memory_order_relaxed);
  }
}

void SessionManager::finish_all(std::uint64_t tick, std::vector<SegmentPtr>& out) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.session_mu);
    for (auto& [id, session] : shard.sessions) session.finish(tick, out);
  }
}

bool SessionManager::export_session(std::uint64_t session_id, std::ostream& out) {
  Shard& shard = *shards_[shard_of(session_id)];
  std::lock_guard<std::mutex> lock(shard.session_mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) return false;
  it->second.save_state(out);
  return true;
}

void SessionManager::restore_session(std::uint64_t session_id, std::istream& in) {
  Shard& shard = *shards_[shard_of(session_id)];
  std::lock_guard<std::mutex> lock(shard.session_mu);
  session(shard, session_id).load_state(in);
}

SessionManager::Stats SessionManager::stats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.counts;
  }
  return total;
}

std::size_t SessionManager::queue_depth(std::size_t s) const {
  check_arg(s < shards_.size(), "queue_depth: shard index out of range");
  const Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.queue.size();
}

std::size_t SessionManager::session_count() const {
  std::size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.session_mu);
    n += shard.sessions.size();
  }
  return n;
}

StreamSession& SessionManager::session(Shard& shard, std::uint64_t session_id) {
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    it = shard.sessions
             .emplace(std::piecewise_construct, std::forward_as_tuple(session_id),
                      std::forward_as_tuple(session_id, config_, segment_pool_))
             .first;
  }
  return it->second;
}

}  // namespace gp::serve
