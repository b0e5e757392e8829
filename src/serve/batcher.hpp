// MicroBatcher: deadline-bounded cross-session micro-batching (DESIGN.md §8).
//
// Completed featurized segments from *all* sessions accumulate in one FIFO.
// A flush happens when (a) the FIFO reaches batch_max segments, (b) the
// oldest pending segment has waited batch_wait_us of wall-clock time, or
// (c) the caller forces one (stream drain). Each flush answers the batch
// with the registry's current ModelSnapshot through decide_batch(), the
// decision path classify() runs as a batch of one: one gesture forward over
// every variant row, one per routed user-ID model, amortised across
// sessions. Only serve-specific steps stay here: the no-model refusal, the
// quality gate (serve always refuses degraded segments; classify() only
// when the margin is armed), the enrollment gate, stats and health timing.
//
// Correctness under batching: the inference stack is per-sample
// batch-composition independent (inference-mode BN uses running stats;
// matmuls and SA grouping are row-local), so a segment's result does not
// depend on which other sessions' segments shared its flush, nor on how
// many exec lanes the flush's forwards were sharded across. Hot-swap
// atomicity: the snapshot shared_ptr is acquired once per flush, so a batch
// is always answered entirely by one model version even if a publish lands
// mid-flush.
//
// Memory model (DESIGN.md §9): the FIFO is a head-indexed vector ring of
// pooled SegmentPtr handles, and every flush reuses one BatchScratch owned
// by the (single) pump thread. A poll that flushes nothing allocates nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/mem.hpp"
#include "nn/tensor.hpp"
#include "serve/enroll_hook.hpp"
#include "serve/registry.hpp"
#include "serve/sessions.hpp"

namespace gp::serve {

class MicroBatcher {
 public:
  /// Flush forwards shard their rows across the lanes of `ctx`. `monitor`
  /// (optional) receives per-request stage breakdowns and batch flush
  /// records. Both must outlive the batcher.
  MicroBatcher(const ServeConfig& config, ModelRegistry& registry, exec::ExecContext& ctx,
               health::HealthMonitor* monitor = nullptr);

  /// Accepts completed segments, moving them out of `segments` (which is
  /// cleared — callers keep reusing the vector). Submission order is
  /// preserved through to the emitted results. Wall-clock arrival is
  /// stamped here for the deadline half of the flush policy.
  void submit(std::vector<SegmentPtr>& segments);

  /// Applies the flush policy and returns the results of every batch it
  /// flushed (possibly several when the backlog exceeds batch_max; empty
  /// when no flush triggered). `force` flushes the remainder regardless of
  /// size/age — the stream-drain path. Must be called from the single pump
  /// thread (reuses the flush scratch).
  std::vector<ServeResult> poll(bool force = false);

  /// Segments waiting for a flush.
  std::size_t pending() const;

  /// Arms the open-set enrollment gate (gp::enroll). The hook must outlive
  /// the batcher; nullptr disarms. With no hook (or GP_ENROLL=0) the flush
  /// path is byte-identical to a build without the enrollment layer.
  void set_enrollment_hook(EnrollmentHook* hook) { enroll_ = hook; }

  /// Monotonic flush tallies: batches, segments and their dispositions
  /// (the frame events stay 0).
  using Stats = health::EventCounts;
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry {
    SegmentPtr segment;
    Clock::time_point arrived;
    std::uint64_t submit_ns = 0;  ///< health timestamp (0 = monitor off)
  };

  bool should_flush(Clock::time_point now) const;  ///< caller holds mu_
  /// Classifies the batch staged in scratch_.entries against the current
  /// snapshot, appending one result per entry to `results`.
  void run_batch_into(std::vector<ServeResult>& results);

  const ServeConfig* config_;
  ModelRegistry* registry_;
  exec::ExecContext* ctx_;
  health::HealthMonitor* monitor_;
  EnrollmentHook* enroll_ = nullptr;  ///< armed by Server when GP_ENROLL=1
  mutable std::mutex mu_;
  /// FIFO as a head-indexed vector ring: pop = advance queue_head_;
  /// storage is compacted (clear, head reset) whenever it empties, so slot
  /// capacity recycles instead of reallocating. Guarded by mu_.
  std::vector<Entry> queue_;
  std::size_t queue_head_ = 0;
  Stats stats_;  ///< guarded by mu_
  /// Flush working set, reused across batches (pump thread only).
  struct BatchScratch {
    std::vector<Entry> entries;                  ///< the staged batch
    std::vector<std::size_t> live;               ///< indices going to inference
    std::vector<std::size_t> counts;             ///< per-live TTA variant count
    mem::SlotVector<FeaturizedSample> rows;      ///< live variants, back to back
    DecisionScratch decide;                      ///< decide_batch working set
    mem::SlotVector<InferenceResult> decisions;  ///< per-live answers
  };
  BatchScratch scratch_;
};

}  // namespace gp::serve
