// Per-client streaming sessions and the sharded SessionManager.
//
// A StreamSession owns the full per-client streaming state — fault injector
// (optional), gap-aware GestureSegmenter, Preprocessor, featurization RNG
// chain — so two clients can never bleed segmentation state into each other.
// Completed segments leave a session already *featurized*: the expensive
// per-segment work (noise cancel, aggregation, TTA resampling) runs inside
// the parallel shard drain, and only fixed-size tensors travel to the
// micro-batcher.
//
// Sharding: session (id) lives on shard (id % shards). Each shard has a
// bounded ingress frame queue (admission control) and an ordered session
// map; shards drain in parallel on gp::exec. Determinism: a session's
// featurize RNG for segment `ordinal`, round `r` is
//     child_rng(child_seed(child_seed(serve_seed, session_id), ordinal), r)
// — a pure function, so per-session outputs are identical for any shard
// count, thread count, or interleaving with other sessions.
//
// Memory model (DESIGN.md §9): the frame path is zero-copy + recycled.
// Admission copies a frame's points once, into the owning shard's epoch
// arena, and queues a non-owning FrameView. The drain tick flips the
// shard's ping-pong arenas (reset, no free) and walks the queued views
// straight into the sessions' recycled segmentation state. Completed
// segments travel as pooled PendingSegment handles (SegmentPtr) whose
// variant buffers persist across reuse — a steady-state tick performs no
// heap allocation (asserted by tests/test_mem.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/mem.hpp"
#include "exec/exec.hpp"
#include "health/health.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/config.hpp"
#include "system/open_set.hpp"

namespace gp::serve {

/// A completed, preprocessed, featurized gesture segment awaiting inference.
/// Pooled: the first `variant_count` entries of `variants` are the live TTA
/// featurizations; the vector itself is slot storage that keeps its
/// capacity across pool round-trips.
struct PendingSegment {
  std::uint64_t session_id = 0;
  std::uint64_t ordinal = 0;                 ///< per-session segment index
  SegmentQuality quality = SegmentQuality::kGood;
  bool empty_cloud = false;                  ///< nothing survived preprocessing
  std::vector<FeaturizedSample> variants;    ///< slot storage (valid prefix)
  std::size_t variant_count = 0;             ///< live entries in variants
  std::uint64_t enqueued_tick = 0;           ///< engine tick at completion
  /// Causal trace id: FNV-1a over (session_id, ordinal) — pure, so identical
  /// with health on/off. Audited on ServeResult::request_id.
  std::uint64_t request_id = 0;
  /// Health timestamps (0 when the monitor is off): when the frame that
  /// completed this segment was admitted, and when its shard drain began.
  std::uint64_t admit_ns = 0;
  std::uint64_t drained_ns = 0;
  /// Enrollment payload (GP_ENROLL only; DESIGN.md §13): the biometric
  /// descriptor the novelty gate scores, plus a copy of the cleaned cloud so
  /// a buffered candidate segment can be re-featurized as fine-tune training
  /// data. Never populated when enrollment is disabled — the extra copies
  /// would break both the zero-alloc steady-tick contract and the
  /// disabled-path bitwise-identity bar.
  bool has_biometrics = false;
  BiometricStats biometrics{};
  GestureCloud cloud;

  std::span<const FeaturizedSample> active_variants() const {
    return {variants.data(), variant_count};
  }

  /// Resets logical state for pool reuse; variant buffers stay warm.
  void reset_for_reuse() {
    session_id = 0;
    ordinal = 0;
    quality = SegmentQuality::kGood;
    empty_cloud = false;
    variant_count = 0;
    enqueued_tick = 0;
    request_id = 0;
    admit_ns = 0;
    drained_ns = 0;
    has_biometrics = false;
    cloud.points.clear();  // keeps capacity, like the variant buffers
  }
};

/// Pooled handle; destruction recycles the segment into its pool.
using SegmentPtr = mem::PoolPtr<PendingSegment>;

class StreamSession {
 public:
  StreamSession(std::uint64_t session_id, const ServeConfig& config,
                mem::Pool<PendingSegment>& pool);

  /// Feeds one frame (through the per-session fault injector when armed);
  /// appends any segments the push completed to `out`. `admit_ns` /
  /// `drained_ns` are health timestamps for the request stage breakdown
  /// (0 = unknown / monitor off). Returns false when the injector dropped
  /// the frame (a fault drop, counted by the caller).
  bool push_frame(const FrameView& frame, std::uint64_t tick, std::vector<SegmentPtr>& out,
                  std::uint64_t admit_ns = 0, std::uint64_t drained_ns = 0);

  /// End-of-stream: flushes a gesture still in progress.
  void finish(std::uint64_t tick, std::vector<SegmentPtr>& out);

  /// Serializes the session's resumable streaming state (segment ordinal +
  /// full mid-gesture segmenter state; the Preprocessor is stateless and
  /// the featurize RNG chain is a pure function of (seed, id, ordinal), so
  /// neither needs bytes) as one "GPSS" blob. Precondition: all completed
  /// segments have been drained — push_frame/finish drain eagerly, so any
  /// quiescent session satisfies it. A restored session continues the
  /// stream bitwise identically to the uninterrupted run (the cluster
  /// session-handoff bar, DESIGN.md §12).
  void save_state(std::ostream& out) const;
  /// Restores state saved by save_state into a session with the same id and
  /// config; throws SerializationError on id/params mismatch or corruption.
  void load_state(std::istream& in);

  std::uint64_t id() const { return id_; }

 private:
  void drain_completed(std::uint64_t tick, std::vector<SegmentPtr>& out,
                       std::uint64_t admit_ns = 0, std::uint64_t drained_ns = 0);

  std::uint64_t id_;
  std::uint64_t session_seed_;  ///< child_seed(serve_seed, id)
  const ServeConfig* config_;
  mem::Pool<PendingSegment>* pool_;
  std::unique_ptr<faults::FaultInjector> injector_;  ///< per-session faults
  GestureSegmenter segmenter_;
  Preprocessor preprocessor_;
  std::uint64_t ordinal_ = 0;
  /// Recycled working memory: the owning-copy a fault injector needs, the
  /// cleaned cloud, and the preprocess/featurize scratch tables.
  FrameCloud fault_scratch_;
  GestureCloud cloud_scratch_;
  Preprocessor::Scratch prep_scratch_;
  FeaturizeScratch feat_scratch_;
};

/// Sharded session table with bounded ingress queues.
class SessionManager {
 public:
  /// `monitor` (optional) switches on the per-request health timestamps; it
  /// must outlive the manager.
  explicit SessionManager(const ServeConfig& config,
                          health::HealthMonitor* monitor = nullptr);

  /// Thread-safe frame admission: copies the frame's points into the owning
  /// shard's epoch arena and enqueues a view, or sheds with a typed
  /// rejection when the queue is at cap.
  Admission enqueue(std::uint64_t session_id, const FrameView& frame, std::uint64_t tick);

  /// Drains every shard queue (parallel over shards on `ctx`), running
  /// segmentation → preprocessing → featurization per session. Appends
  /// completed segments to `out` in deterministic order (shard index, then
  /// completion order).
  void drain_into(exec::ExecContext& ctx, std::uint64_t tick, std::vector<SegmentPtr>& out);

  /// Flushes every session's in-progress gesture, appending to `out`.
  /// (Queued frames are drained first by the caller via drain_into().)
  void finish_all(std::uint64_t tick, std::vector<SegmentPtr>& out);

  /// Session-handoff passthroughs (cluster failover, DESIGN.md §12): both
  /// must run quiescent — after a drain, with no frames queued for the
  /// session — or the exported blob would miss in-flight state.
  /// export_session returns false when the session does not exist;
  /// restore_session creates the session if needed and overwrites its
  /// streaming state from the blob.
  bool export_session(std::uint64_t session_id, std::ostream& out);
  void restore_session(std::uint64_t session_id, std::istream& in);

  /// Monotonic frame tallies summed over shards: admissions, queue-full
  /// rejects and fault drops (the segment events stay 0).
  using Stats = health::EventCounts;
  Stats stats() const;

  std::size_t shard_count() const { return shards_.size(); }
  /// Current depth of shard `s`'s ingress queue (diagnostics/tests).
  std::size_t queue_depth(std::size_t s) const;
  std::size_t session_count() const;

 private:
  struct QueuedFrame {
    std::uint64_t session_id = 0;
    std::uint64_t admit_ns = 0;  ///< admission timestamp (0 = monitor off)
    FrameView frame;             ///< points live in the shard's epoch arena
  };
  struct Shard {
    /// Guards queue + arenas + counts; held only for O(1) enqueue/flip/fold
    /// so frame admission never waits behind featurization.
    mutable std::mutex mu;
    /// Guards the session map; held by drain/finish while running the
    /// (expensive) segmentation→preprocess→featurize work.
    mutable std::mutex session_mu;
    /// Ping-pong frame-point arenas: producers copy into arenas[epoch]; the
    /// drain tick flips epoch and resets the incoming side, so views queued
    /// before the flip stay valid while they are processed.
    mem::Arena arenas[2];
    std::size_t epoch = 0;
    std::vector<QueuedFrame> queue;                      ///< bounded by queue_cap
    std::vector<QueuedFrame> drain_queue;                ///< drain-side double buffer
    std::vector<SegmentPtr> out_scratch;                 ///< drain-tick results
    std::map<std::uint64_t, StreamSession> sessions;     ///< ordered → deterministic
    health::EventCounts counts;  ///< this shard's frame fates
  };

  std::size_t shard_of(std::uint64_t session_id) const {
    return static_cast<std::size_t>(session_id % shards_.size());
  }
  StreamSession& session(Shard& shard, std::uint64_t session_id);
  void drain_shard(std::size_t s);

  ServeConfig config_;
  health::HealthMonitor* monitor_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mem::Pool<PendingSegment> segment_pool_;
  /// Tick-granular admission clock: refreshed once per drain (and at
  /// construction); admitted frames copy it instead of reading the clock.
  /// A per-frame monotonic_ns() would cost more than everything else on
  /// the admission path combined — admission wait is therefore measured
  /// from the last tick boundary (an upper bound, exact for clients that
  /// push right after a pump).
  std::atomic<std::uint64_t> admit_clock_ns_{0};
  /// Tick of the drain in flight (pump is externally serialized) plus the
  /// pre-built chunk functor, so run_chunks never constructs a callable.
  std::uint64_t drain_tick_ = 0;
  exec::ThreadPool::ChunkFn drain_fn_;
};

}  // namespace gp::serve
