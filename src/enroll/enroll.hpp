// gp::enroll — open-set enrollment-as-a-service (DESIGN.md §13).
//
// The EnrollmentService turns the serve stack's abstention vocabulary into a
// product feature: segments the open-set novelty gate rejects are clustered
// into per-candidate EnrollmentBuffers; once a candidate accumulates
// K segments, a head-only fine-tune (frozen PointNet++ trunk,
// GesturePrintSystem::widen_users + fine_tune_user_heads) trains a widened
// user head on replayed enrolled samples plus the buffered evidence, saves a
// new .gpsy, and publishes it through the checksum-verified
// ModelRegistry::publish_file RCU hot-swap — zero dropped ticks, the
// in-flight batch always answered by exactly one model version.
//
// It implements serve::EnrollmentHook: gate() runs on the pump thread during
// a flush and is read-only against the novelty gallery; every mutation
// (candidate clustering, K-trigger, fine-tune, gallery growth, publish
// bookkeeping) happens in close_tick(), over observations ordered by
// (session_id, ordinal). Enrollment outcomes are therefore pure functions of
// the per-session streams — bitwise invariant to GP_THREADS × shard count.
//
// The fine-tune runs inside close_tick, which pins the publish to a
// deterministic stream position.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "enroll/buffer.hpp"
#include "serve/enroll_hook.hpp"
#include "serve/registry.hpp"
#include "serve/sessions.hpp"
#include "system/open_set.hpp"

namespace gp::enroll {

struct EnrollmentServiceConfig {
  /// Admission knobs, normally copied from ServeConfig::enroll.
  serve::EnrollConfig admission;
  /// Novelty gallery knobs (FRR target, k nearest neighbours).
  OpenSetConfig open_set;
  /// The .gpsy the first fine-tune starts from (must round-trip the model
  /// the registry serves). Each successful enrollment rebases this onto the
  /// freshly published artifact, so enrollments compose.
  std::string base_model_path;
  /// Directory where enroll_v<seq>.gpsy artifacts are written.
  std::string publish_dir;
  std::size_t fine_tune_epochs = 4;
  double fine_tune_lr = 5e-4;
  /// Replay cap per (gesture, user) cell captured at calibrate() time: the
  /// widened head trains against these negatives so it cannot collapse onto
  /// the new user's class.
  std::size_t replay_per_cell = 3;
  /// Drives widened-head inits, fine-tune shuffles and the synthetic profile
  /// of each enrolled user; enrollment outcomes are pure in it.
  std::uint64_t seed = 0xE9120115ULL;
  /// Quant mode the published snapshot fuses with (match the serve config).
  nn::QuantMode quant = nn::QuantMode::kOff;
};

class EnrollmentService final : public serve::EnrollmentHook {
 public:
  /// `registry` must outlive the service; its config() is the architecture
  /// fine-tuned systems are constructed with.
  EnrollmentService(EnrollmentServiceConfig config, serve::ModelRegistry& registry);

  EnrollmentService(const EnrollmentService&) = delete;
  EnrollmentService& operator=(const EnrollmentService&) = delete;

  /// Calibrates the novelty gallery from the enrolled training split and
  /// captures the replay set for future fine-tunes. Must run before the
  /// hook is armed.
  void calibrate(const Dataset& dataset, std::span<const std::size_t> genuine_indices);

  // serve::EnrollmentHook
  bool gate(const serve::PendingSegment& segment, const serve::ServeResult& result) override;
  void close_tick(std::uint64_t tick) override;

  /// One completed enrollment (audit record).
  struct EnrolledUser {
    int user_id = -1;                 ///< class id in the widened head
    std::uint64_t candidate_id = 0;   ///< buffer candidate consumed
    std::uint64_t model_version = 0;  ///< registry version that went live
    std::uint64_t tick = 0;           ///< close_tick that published it
    std::string artifact;             ///< the enroll_v<seq>.gpsy path
  };

  struct Stats {
    std::uint64_t novelty_rejections = 0;  ///< gate() fired
    std::size_t candidates = 0;            ///< live candidate buffers
    std::size_t buffered_segments = 0;     ///< live buffered segments
    std::uint64_t evicted_segments = 0;
    std::uint64_t evicted_candidates = 0;
    std::uint64_t fine_tunes_started = 0;
    std::uint64_t fine_tunes_failed = 0;   ///< base load/save/publish failed
    std::uint64_t users_enrolled = 0;
    std::uint64_t last_publish_version = 0;
  };
  Stats stats() const;
  std::vector<EnrolledUser> enrolled() const;

  const BiometricGallery& gallery() const { return gallery_; }
  /// Candidate-buffer state (pump-thread callers only: read between ticks).
  const EnrollmentBuffer& buffer() const { return buffer_; }
  bool calibrated() const { return gallery_.calibrated(); }
  const EnrollmentServiceConfig& config() const { return config_; }

 private:
  /// Scans for K-ready candidates and runs their fine-tunes.
  void trigger_ready(std::uint64_t tick);
  /// Takes the candidate's evidence, widens the base model's user heads,
  /// fine-tunes, saves enroll_v<seq>.gpsy, publishes it and records the
  /// enrolled user. Returns false when any step fails (the evidence is
  /// consumed either way); trigger_ready() counts the failure.
  bool enroll_candidate(std::uint64_t candidate_id, std::uint64_t tick);

  EnrollmentServiceConfig config_;
  serve::ModelRegistry* registry_;
  BiometricGallery gallery_;
  Dataset replay_;                  ///< capped enrolled replay set
  EnrollmentBuffer buffer_;
  std::string base_model_path_;     ///< rebased after each publish
  std::uint64_t enroll_seq_ = 0;

  /// Observations gate() staged this tick (pump thread); drained and
  /// admitted in (session_id, ordinal) order by close_tick().
  std::vector<EnrollObservation> staged_;

  mutable std::mutex mu_;  ///< guards stats_/enrolled_
  Stats stats_;
  std::vector<EnrolledUser> enrolled_;
};

}  // namespace gp::enroll
