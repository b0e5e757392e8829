// Server: the gp::serve facade — admission → sessions → micro-batcher.
//
// Wiring: producer threads call push_frame() concurrently (lock-bounded
// admission onto the owning shard's ingress queue). One pump thread calls
// pump() in a loop; each pump is one engine *tick*: drain every shard in
// parallel on the ExecContext (segmentation → preprocessing → featurization
// per session), submit the completed segments to the MicroBatcher, and poll
// it under the size/deadline flush policy. drain() ends the streams:
// flushes in-progress gestures in every session and force-flushes the
// batcher.
//
// Event tally (DESIGN.md §8.3): every frame and segment fate is counted once,
// in the owning shard or the batcher. At each tick close the server folds the
// delta of those totals into the health monitor and the gp.serve.* counters.
//
// Threading contract: push_frame is thread-safe against everything;
// pump/drain must be externally serialized (one pump thread).
// Model hot-swap (ModelRegistry::publish*) is safe at any time — the
// batcher pins one snapshot per flush.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "exec/exec.hpp"
#include "health/health.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "serve/sessions.hpp"

namespace gp::serve {

class Server {
 public:
  /// `registry` must outlive the server; publish at least one model before
  /// expecting non-abstain answers (pre-publish segments get typed
  /// no-model abstentions, never exceptions).
  Server(const ServeConfig& config, ModelRegistry& registry,
         exec::ExecContext& ctx = exec::ExecContext::global());

  /// Thread-safe frame admission for `session_id`'s stream. The frame's
  /// points are copied once, into the owning shard's epoch arena (FrameCloud
  /// arguments convert implicitly).
  Admission push_frame(std::uint64_t session_id, const FrameView& frame);

  /// One engine tick: parallel shard drain → batch submit → policy poll.
  /// Returns every result whose batch flushed this tick.
  std::vector<ServeResult> pump();

  /// End-of-stream: drains queued frames, flushes in-progress gestures in
  /// every session, and force-flushes the batcher.
  std::vector<ServeResult> drain();

  /// Session-handoff passthroughs (gp::cluster failover, DESIGN.md §12).
  /// Serialize with pump/drain and only call them quiescent — right after a
  /// pump, before any new push — so the blob captures the whole stream.
  bool export_session(std::uint64_t session_id, std::ostream& out) {
    return sessions_.export_session(session_id, out);
  }
  void restore_session(std::uint64_t session_id, std::istream& in) {
    sessions_.restore_session(session_id, in);
  }

  std::uint64_t ticks() const { return tick_.load(std::memory_order_relaxed); }
  /// Every event so far: the shards' frame tallies plus the batcher's.
  health::EventCounts stats() const { return sessions_.stats() + batcher_.stats(); }
  SessionManager::Stats session_stats() const { return sessions_.stats(); }
  MicroBatcher::Stats batch_stats() const { return batcher_.stats(); }
  const SessionManager& sessions() const { return sessions_; }
  const ServeConfig& config() const { return config_; }

  /// Health surface (DESIGN.md §10): rolling SLI windows, SLO verdict, and
  /// the p99 exemplar. Serialise with pump/drain (like stats readers).
  health::HealthSnapshot health_snapshot() const { return monitor_.snapshot(); }
  const health::HealthMonitor& health() const { return monitor_; }
  health::HealthMonitor& health() { return monitor_; }

  /// Arms the open-set enrollment layer (gp::enroll, DESIGN.md §13): the
  /// hook gates flush results and gets a close_tick() barrier after every
  /// pump/drain tick. Must outlive the server; nullptr disarms.
  void set_enrollment_hook(EnrollmentHook* hook) {
    enroll_ = hook;
    batcher_.set_enrollment_hook(hook);
  }

 private:
  /// Tick-close fold: hands the event delta since the previous close to the
  /// monitor and the gp.serve.* counters, then runs the enrollment barrier.
  void close_tick(std::uint64_t tick);

  ServeConfig config_;
  ModelRegistry* registry_;
  exec::ExecContext* ctx_;
  /// Declared before sessions_/batcher_: both capture a pointer to it.
  health::HealthMonitor monitor_;
  SessionManager sessions_;
  MicroBatcher batcher_;
  EnrollmentHook* enroll_ = nullptr;
  std::atomic<std::uint64_t> tick_{0};
  /// stats() at the previous tick close (pump thread only).
  health::EventCounts folded_;
  /// gp.serve.* counter per health::kEvents entry, resolved at construction.
  std::array<obs::Counter*, health::kEventCount> event_counters_{};
  /// Recycled segment carrier between drain_into and submit (pump thread
  /// only; submit moves the handles out and clears it).
  std::vector<SegmentPtr> segments_scratch_;
};

}  // namespace gp::serve
