#include "enroll/enroll.hpp"

#include <algorithm>
#include <exception>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "exec/exec.hpp"
#include "obs/metrics.hpp"

namespace gp::enroll {

EnrollmentService::EnrollmentService(EnrollmentServiceConfig config,
                                     serve::ModelRegistry& registry)
    : config_(std::move(config)),
      registry_(&registry),
      gallery_(config_.open_set),
      buffer_(EnrollmentBuffer::Config{config_.admission.max_candidates,
                                       config_.admission.buffer_cap,
                                       config_.admission.candidate_radius}),
      base_model_path_(config_.base_model_path) {
  check_arg(config_.admission.k_segments >= 1, "enrollment K must be >= 1");
  check_arg(!config_.publish_dir.empty(), "enrollment needs a publish directory");
}

void EnrollmentService::calibrate(const Dataset& dataset,
                                  std::span<const std::size_t> genuine_indices) {
  std::vector<BiometricStats> raw;
  std::vector<int> gestures;
  raw.reserve(genuine_indices.size());
  gestures.reserve(genuine_indices.size());
  for (std::size_t idx : genuine_indices) {
    check_arg(idx < dataset.samples.size(), "calibration index out of range");
    raw.push_back(biometric_stats(dataset.samples[idx].cloud));
    gestures.push_back(dataset.samples[idx].gesture);
  }
  gallery_.calibrate(raw, gestures);

  // Capture the replay set: up to replay_per_cell enrolled samples per
  // (gesture, user) cell. Every future fine-tune trains the widened head
  // against these negatives, so the new class cannot swallow the enrolled
  // users' decision regions.
  replay_.spec = dataset.spec;
  replay_.users = dataset.users;
  replay_.samples.clear();
  std::map<std::pair<int, int>, std::size_t> cell_counts;
  for (std::size_t idx : genuine_indices) {
    const GestureSample& s = dataset.samples[idx];
    std::size_t& count = cell_counts[{s.gesture, s.user}];
    if (count >= config_.replay_per_cell) continue;
    ++count;
    replay_.samples.push_back(s);
  }
}

bool EnrollmentService::gate(const serve::PendingSegment& segment,
                             const serve::ServeResult& result) {
  if (!gallery_.calibrated()) return false;
  const BiometricStats normalized = gallery_.normalize(segment.biometrics);
  const double distance = gallery_.novelty_normalized(result.gesture, normalized);
  if (gallery_.accepts(distance)) return false;

  EnrollObservation obs;
  obs.session_id = segment.session_id;
  obs.ordinal = segment.ordinal;
  obs.gesture = result.gesture;
  obs.raw = segment.biometrics;
  obs.normalized = normalized;
  obs.cloud = segment.cloud;
  obs.staged_ns = monotonic_ns();
  staged_.push_back(std::move(obs));
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.novelty_rejections;
  }
  return true;
}

void EnrollmentService::close_tick(std::uint64_t tick) {
  // 1. Admit this tick's rejected segments in (session_id, ordinal) order —
  //    the shard-count/thread-count-independent canonical stream order.
  if (!staged_.empty()) {
    std::sort(staged_.begin(), staged_.end(),
              [](const EnrollObservation& a, const EnrollObservation& b) {
                return std::tie(a.session_id, a.ordinal) < std::tie(b.session_id, b.ordinal);
              });
    for (EnrollObservation& obs : staged_) {
      const EnrollmentBuffer::AdmitOutcome outcome = buffer_.admit(std::move(obs));
      if (outcome.founded) GP_COUNTER_ADD("gp.enroll.candidates.founded", 1);
      switch (outcome.eviction) {
        case Eviction::kSegmentOldest:
          GP_COUNTER_ADD("gp.enroll.evicted.segment_oldest", 1);
          break;
        case Eviction::kCandidateWeakest:
          GP_COUNTER_ADD("gp.enroll.evicted.candidate_weakest", 1);
          break;
        case Eviction::kNone:
          break;
      }
    }
    staged_.clear();
  }

  // 2. Fire fine-tunes for K-ready candidates.
  trigger_ready(tick);

  std::lock_guard<std::mutex> lk(mu_);
  stats_.candidates = buffer_.candidates().size();
  stats_.buffered_segments = buffer_.total_segments();
  stats_.evicted_segments = buffer_.stats().evicted_segments;
  stats_.evicted_candidates = buffer_.stats().evicted_candidates;
}

void EnrollmentService::trigger_ready(std::uint64_t tick) {
  for (;;) {
    // Lowest-id ready candidate first: founding order, deterministic.
    const Candidate* ready = nullptr;
    for (const Candidate& c : buffer_.candidates()) {
      if (c.segments.size() >= config_.admission.k_segments) {
        ready = &c;
        break;
      }
    }
    if (ready == nullptr) return;

    // Run inline at the tick barrier. Several ready candidates enroll
    // back-to-back, each fine-tune rebased on the previous publish.
    if (!enroll_candidate(ready->id, tick)) {
      GP_COUNTER_ADD("gp.enroll.fine_tune.failed", 1);
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.fine_tunes_failed;
    }
  }
}

bool EnrollmentService::enroll_candidate(std::uint64_t candidate_id, std::uint64_t tick) {
  const std::uint64_t seq = ++enroll_seq_;
  // The evidence is consumed whether or not the fine-tune succeeds; a
  // candidate that keeps streaming re-accumulates.
  const std::vector<EnrollObservation> evidence = buffer_.take(candidate_id);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.fine_tunes_started;
  }
  GP_COUNTER_ADD("gp.enroll.fine_tune.started", 1);

  const std::string artifact = config_.publish_dir + "/enroll_v" + std::to_string(seq) + ".gpsy";
  int new_user = -1;
  try {
    GesturePrintSystem sys(registry_->config());
    if (!sys.try_load(base_model_path_)) {
      log_warn() << "enroll: fine-tune " << seq << " could not load base model '"
                 << base_model_path_ << "'";
      return false;
    }
    new_user = sys.widen_users(exec::child_seed(config_.seed, seq));

    // Adaptation set: the calibrated replay negatives plus the candidate's
    // buffered evidence labelled as the new class. The synthetic profile is
    // a placeholder consistent with the widened label space — training only
    // reads the recorded clouds.
    Dataset adapt = replay_;
    Rng profile_rng(exec::child_seed(config_.seed ^ 0x9E3779B97F4A7C15ULL, seq));
    adapt.users.push_back(UserProfile::sample(new_user, profile_rng));
    adapt.spec.num_users = adapt.users.size();
    for (const EnrollObservation& obs : evidence) {
      GestureSample sample;
      sample.cloud = obs.cloud;
      sample.gesture = obs.gesture;
      sample.user = new_user;
      adapt.samples.push_back(std::move(sample));
    }
    std::vector<std::size_t> indices(adapt.samples.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    sys.fine_tune_user_heads(adapt, indices, config_.fine_tune_epochs, config_.fine_tune_lr);
    sys.save(artifact);
  } catch (const std::exception& e) {
    log_warn() << "enroll: fine-tune " << seq << " failed: " << e.what();
    return false;
  }
  const std::optional<std::uint64_t> version = registry_->publish_file(artifact, config_.quant);
  if (!version.has_value()) return false;

  // The registry serves the widened head now; grow the novelty gallery so
  // the enrolled person's future segments pass the gate, and rebase the next
  // fine-tune on this artifact so enrollments compose.
  std::uint64_t first_staged_ns = 0;
  for (const EnrollObservation& obs : evidence) {
    gallery_.enroll_sample(obs.gesture, obs.raw);
    if (first_staged_ns == 0 || obs.staged_ns < first_staged_ns) first_staged_ns = obs.staged_ns;
  }
  base_model_path_ = artifact;

  GP_COUNTER_ADD("gp.enroll.published", 1);
  if (first_staged_ns != 0) {
    const double ms = static_cast<double>(monotonic_ns() - first_staged_ns) / 1e6;
    static obs::Histogram& to_live = obs::histogram("gp.enroll.to_live_ms");
    to_live.observe(ms);
  }

  EnrolledUser record;
  record.user_id = new_user;
  record.candidate_id = candidate_id;
  record.model_version = *version;
  record.tick = tick;
  record.artifact = artifact;

  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.users_enrolled;
  stats_.last_publish_version = *version;
  enrolled_.push_back(std::move(record));
  return true;
}

EnrollmentService::Stats EnrollmentService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<EnrollmentService::EnrolledUser> EnrollmentService::enrolled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return enrolled_;
}

}  // namespace gp::enroll
