#include "enroll/buffer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace gp::enroll {

namespace {

double l2(const BiometricStats& a, const BiometricStats& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < kBiometricDims; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace

EnrollmentBuffer::EnrollmentBuffer(Config config) : config_(config) {
  check_arg(config_.max_candidates >= 1, "enrollment needs >= 1 candidate slot");
  check_arg(config_.buffer_cap >= 1, "enrollment buffer cap must be >= 1");
  check_arg(config_.candidate_radius > 0.0, "candidate radius must be positive");
}

EnrollmentBuffer::AdmitOutcome EnrollmentBuffer::admit(EnrollObservation obs) {
  AdmitOutcome outcome;
  ++stats_.admitted;

  // Nearest candidate centroid in z-space. Ties (exactly equal distances)
  // resolve to the lowest id — candidates_ is ascending by id and the strict
  // `<` keeps the first minimum.
  Candidate* nearest = nullptr;
  double nearest_d = std::numeric_limits<double>::max();
  for (Candidate& c : candidates_) {
    const double d = l2(c.centroid, obs.normalized);
    if (d < nearest_d) {
      nearest_d = d;
      nearest = &c;
    }
  }

  if (nearest != nullptr && nearest_d <= config_.candidate_radius) {
    // Join: running-mean centroid over every segment ever admitted (evicted
    // segments keep their weight — the centroid tracks the *person*, not the
    // buffer contents).
    Candidate& c = *nearest;
    const double n = static_cast<double>(c.admitted);
    for (std::size_t d = 0; d < kBiometricDims; ++d) {
      c.centroid[d] = (c.centroid[d] * n + obs.normalized[d]) / (n + 1.0);
    }
    ++c.admitted;
    if (c.segments.size() >= config_.buffer_cap) {
      c.segments.erase(c.segments.begin());  // typed: oldest segment out
      ++stats_.evicted_segments;
      outcome.eviction = Eviction::kSegmentOldest;
    }
    outcome.candidate_id = c.id;
    c.segments.push_back(std::move(obs));
    return outcome;
  }

  // Found a new candidate; evict the weakest when the table is full. Weakest
  // = fewest live segments, lowest id on ties (the longest-stalled stranger).
  if (candidates_.size() >= config_.max_candidates) {
    std::size_t weakest = 0;
    for (std::size_t i = 1; i < candidates_.size(); ++i) {
      if (candidates_[i].segments.size() < candidates_[weakest].segments.size()) weakest = i;
    }
    stats_.evicted_segments += candidates_[weakest].segments.size();
    ++stats_.evicted_candidates;
    candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(weakest));
    outcome.eviction = Eviction::kCandidateWeakest;
  }

  Candidate c;
  c.id = next_id_++;
  c.centroid = obs.normalized;
  c.admitted = 1;
  outcome.candidate_id = c.id;
  outcome.founded = true;
  ++stats_.founded;
  c.segments.push_back(std::move(obs));
  candidates_.push_back(std::move(c));
  return outcome;
}

const Candidate* EnrollmentBuffer::find(std::uint64_t candidate_id) const {
  for (const Candidate& c : candidates_) {
    if (c.id == candidate_id) return &c;
  }
  return nullptr;
}

std::vector<EnrollObservation> EnrollmentBuffer::take(std::uint64_t candidate_id) {
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].id == candidate_id) {
      std::vector<EnrollObservation> out = std::move(candidates_[i].segments);
      candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(i));
      return out;
    }
  }
  return {};
}

std::size_t EnrollmentBuffer::total_segments() const {
  std::size_t total = 0;
  for (const Candidate& c : candidates_) total += c.segments.size();
  return total;
}

}  // namespace gp::enroll
