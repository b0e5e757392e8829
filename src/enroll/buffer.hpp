// Enrollment candidate buffers (DESIGN.md §13).
//
// Segments the open-set novelty gate rejects are evidence that *someone
// unknown* is using the system — but several unknown people may be streaming
// at once. The EnrollmentBuffer clusters rejected segments into per-candidate
// buffers by nearest-centroid assignment in the same z-scored biometric space
// the novelty decision uses: a rejected segment joins the closest candidate
// centroid within `candidate_radius`, otherwise it founds a new candidate.
// Everything is bounded with *typed* eviction — a full candidate buffer
// evicts its oldest segment, a full candidate table evicts the weakest
// candidate (fewest live segments, lowest id on ties) — so an adversarial
// stream of random gestures can grow neither memory nor the candidate count.
//
// Determinism: admission happens at tick close, over observations ordered by
// (session_id, ordinal); centroid updates are running means over admission
// order. Outcomes are therefore pure functions of the stream, invariant to
// GP_THREADS and shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "system/open_set.hpp"

namespace gp::enroll {

/// One novelty-rejected segment retained as enrollment evidence. Carries the
/// cleaned cloud so a triggered fine-tune can featurize it as training data.
struct EnrollObservation {
  std::uint64_t session_id = 0;
  std::uint64_t ordinal = 0;
  int gesture = -1;
  BiometricStats raw{};        ///< un-normalized descriptor
  BiometricStats normalized{}; ///< z-scored under the gallery calibration
  GestureCloud cloud;
  /// Wall-clock staging timestamp (0 when obs metrics are off): start of the
  /// enrollment-to-live latency measurement. Observational only — never
  /// feeds back into clustering or training.
  std::uint64_t staged_ns = 0;
};

/// Why room had to be made (the typed-eviction vocabulary).
enum class Eviction {
  kNone = 0,
  kSegmentOldest,     ///< candidate buffer at cap: oldest segment dropped
  kCandidateWeakest,  ///< candidate table at cap: weakest candidate dropped
};

/// One tracked enrollment candidate: a centroid in z-space plus its bounded
/// segment buffer.
struct Candidate {
  std::uint64_t id = 0;              ///< founding order (monotonic)
  BiometricStats centroid{};         ///< running mean over admitted segments
  std::uint64_t admitted = 0;        ///< total ever admitted (centroid weight)
  std::vector<EnrollObservation> segments;  ///< live evidence, oldest first
};

class EnrollmentBuffer {
 public:
  struct Config {
    std::size_t max_candidates = 4;
    std::size_t buffer_cap = 16;
    double candidate_radius = 3.5;
  };

  explicit EnrollmentBuffer(Config config);

  struct AdmitOutcome {
    std::uint64_t candidate_id = 0;
    bool founded = false;          ///< a new candidate was created
    Eviction eviction = Eviction::kNone;
  };

  /// Admits one observation: nearest-centroid assignment within the radius,
  /// else a new candidate (evicting typed when bounds require it).
  AdmitOutcome admit(EnrollObservation obs);

  /// Candidates in founding order (ascending id).
  const std::vector<Candidate>& candidates() const { return candidates_; }
  const Candidate* find(std::uint64_t candidate_id) const;

  /// Removes a candidate (after its fine-tune consumed the evidence),
  /// returning its observations. Returns an empty vector for unknown ids.
  std::vector<EnrollObservation> take(std::uint64_t candidate_id);

  std::size_t total_segments() const;

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t founded = 0;
    std::uint64_t evicted_segments = 0;
    std::uint64_t evicted_candidates = 0;
  };
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  std::vector<Candidate> candidates_;  ///< ascending id
  std::uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace gp::enroll
