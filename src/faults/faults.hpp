// gp::faults — seed-deterministic fault injection for the streaming radar
// path (DESIGN.md §7).
//
// The paper evaluates GesturePrint under clean capture conditions; a
// deployed continuously-streaming radar is not clean. This module models
// the failure taxonomy that actually sinks mmWave systems in the field —
// dropped frames over the serial link, bursty loss, duty-cycled sensor
// dropout, interference point storms, truncated point clouds, timestamp
// jitter/reorder, and bit-rot in serialized artifacts — as *injectable*,
// *replayable* faults so robustness can be measured instead of assumed.
//
// Determinism contract: a FaultPlan is a pure function of (FaultConfig,
// frame index). The schedule is materialised sequentially from the config
// seed; every per-frame decision additionally owns an independent child
// RNG stream (exec::child_seed keyed by the frame index) for point-level
// randomness, so the same plan replays bit-identically for any thread
// count and any consumption order. Severity scaling uses common random
// numbers: the per-frame uniforms are drawn unconditionally and compared
// against severity-scaled thresholds, so the set of frames dropped at
// severity s is a subset of the set dropped at severity s' > s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pointcloud/point.hpp"
#include "radar/sensor.hpp"

namespace gp::faults {

// ------------------------------------------------------------------ config

/// Fault families, one per injection mechanism. `preset()` builds a config
/// exercising exactly one family at a given severity.
enum class FaultKind {
  kFrameDrop,    ///< i.i.d. frame loss (UART frame drops)
  kBurstDrop,    ///< bursty loss via a Gilbert–Elliott two-state channel
  kDutyCycle,    ///< periodic sensor dropout (thermal duty cycling)
  kInterference, ///< ghost/clutter point storms (co-channel interference)
  kTruncation,   ///< point clouds truncated mid-frame (DMA underrun)
  kJitter,       ///< timestamp jitter + neighbour reordering
};

const char* fault_kind_name(FaultKind kind);
const std::vector<FaultKind>& all_fault_kinds();

/// All mechanisms in one config; a zeroed config is the identity (and the
/// injector's off path performs no work at all — see FaultInjector).
struct FaultConfig {
  std::uint64_t seed = 0xFA17u;  ///< schedule seed (drives every decision)

  // i.i.d. frame drops.
  double drop_prob = 0.0;  ///< per-frame loss probability

  // Gilbert–Elliott bursty channel: good->bad with prob burst_enter,
  // bad->good with prob burst_exit; in the bad state frames drop with
  // burst_drop_prob.
  double burst_enter = 0.0;
  double burst_exit = 0.25;
  double burst_drop_prob = 0.9;

  // Duty-cycle dropout: every `dutycycle_period` frames the sensor goes
  // dark for `dutycycle_off` frames (0 period disables).
  std::size_t dutycycle_period = 0;
  std::size_t dutycycle_off = 0;

  // Interference storms: with interference_prob a frame gains a storm of
  // ghost points (count ~ U[0.5, 1.5] * interference_points) scattered over
  // the sensing volume.
  double interference_prob = 0.0;
  std::size_t interference_points = 40;

  // Truncation: with truncation_prob a frame keeps only the first
  // truncation_keep fraction of its points.
  double truncation_prob = 0.0;
  double truncation_keep = 0.35;

  // Timing faults: Gaussian timestamp jitter (seconds) plus neighbour
  // swaps with reorder_prob (sequence mode only; a streaming consumer has
  // no lookahead to reorder with).
  double jitter_sigma_s = 0.0;
  double reorder_prob = 0.0;

  /// True when any mechanism can fire.
  bool enabled() const;

  /// Config exercising exactly one fault family, scaled by severity in
  /// [0, 1] (0 = identity, 1 = the family's worst case).
  static FaultConfig preset(FaultKind kind, double severity,
                            std::uint64_t seed = 0xFA17u);

  /// Every family at once, each scaled by `severity` (the live-demo mode).
  static FaultConfig mixed(double severity, std::uint64_t seed = 0xFA17u);

  /// Parses a "key=value,key=value" spec, e.g.
  ///   "drop=0.2,ghost=0.3,trunc=0.1,jitter=0.02,seed=7"
  /// Keys: drop, burst, burst_exit, burst_drop, duty_period, duty_off,
  /// ghost, ghost_points, trunc, trunc_keep, jitter, reorder, seed, and
  /// `mixed=<severity>` as shorthand for mixed(). Throws InvalidArgument on
  /// unknown keys or malformed numbers.
  static FaultConfig from_spec(const std::string& spec);

  /// Config from the GP_FAULTS environment variable (from_spec syntax);
  /// nullopt when unset or empty.
  static std::optional<FaultConfig> from_env();
};

// -------------------------------------------------------------------- plan

/// Per-frame fault decision, fully determined at plan time.
struct FrameFault {
  bool drop = false;             ///< frame never reaches the consumer
  bool truncate = false;
  double keep_fraction = 1.0;    ///< applied when truncate is set
  std::uint32_t ghost_points = 0;
  double jitter_s = 0.0;         ///< added to the timestamp
  bool swap_with_next = false;   ///< sequence mode: swap with successor
  std::uint64_t point_seed = 0;  ///< child stream for point-level noise
};

/// Materialised fault schedule over frame indices [0, horizon). The
/// schedule extends on demand (sequentially, so the Gilbert–Elliott chain
/// state is well-defined) and is bitwise identical for a given config.
class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig config, std::size_t initial_horizon = 0);

  /// The decision for `frame_index`, extending the schedule if needed.
  const FrameFault& at(std::size_t frame_index);

  /// Extends the schedule to cover [0, n).
  void ensure(std::size_t n);
  std::size_t horizon() const { return frames_.size(); }
  const FaultConfig& config() const { return config_; }

  /// Plan-level tallies over [0, n) (extends if needed). Tests compare
  /// these against the gp::obs fault counters after a run.
  struct Totals {
    std::uint64_t drops = 0;
    std::uint64_t truncated = 0;
    std::uint64_t ghost_points = 0;
    std::uint64_t jittered = 0;
    std::uint64_t reordered = 0;
  };
  Totals totals(std::size_t n);

  /// FNV-1a digest of the schedule over [0, n) — the replay-determinism
  /// oracle: same config => same digest, on any thread count.
  std::uint64_t schedule_digest(std::size_t n);

 private:
  void extend_to(std::size_t n);

  FaultConfig config_;
  bool burst_bad_ = false;  ///< Gilbert–Elliott channel state
  std::vector<FrameFault> frames_;
};

// ---------------------------------------------------------------- injector

/// Applies a FaultPlan to a frame stream. Streaming consumers call
/// apply(frame); whole recordings go through apply_sequence(), which
/// additionally honours reordering (needs lookahead). Every injected fault
/// is counted through gp::obs (gp.faults.*) and tallied locally.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// nullopt when the frame is dropped; otherwise the (possibly corrupted)
  /// frame. Keyed by frame.frame_index, so gaps in the input indexing are
  /// handled consistently. With a disabled config this is a single branch
  /// and the frame is passed through untouched.
  std::optional<FrameCloud> apply(const FrameCloud& frame);

  /// Whole-recording application (drops removed, swaps applied).
  FrameSequence apply_sequence(const FrameSequence& frames);

  const FaultConfig& config() const { return plan_.config(); }
  FaultPlan& plan() { return plan_; }

  /// Local tallies of what was actually injected (independent of
  /// GP_METRICS, so tests can assert against plan totals cheaply).
  struct Counts {
    std::uint64_t frames_seen = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t frames_truncated = 0;
    std::uint64_t ghost_points = 0;
    std::uint64_t frames_jittered = 0;
    std::uint64_t frames_reordered = 0;
    std::uint64_t points_removed = 0;
  };
  const Counts& counts() const { return counts_; }

 private:
  FrameCloud corrupt(const FrameCloud& frame, const FrameFault& fault);

  FaultPlan plan_;
  bool enabled_ = false;
  Counts counts_;
};

// -------------------------------------------------- radar sensor decorator

/// RadarSensor decorator: observes through the wrapped sensor, then runs
/// the result through a FaultInjector — the drop-in way to feed any
/// existing consumer a degraded stream. Keeps the RadarSensor interface
/// (observe / observe_frame) so call sites swap without restructuring.
class FaultyRadarSensor {
 public:
  FaultyRadarSensor(RadarSensor inner, FaultConfig faults);

  /// Faulty observation of a gesture performance: frames the plan drops
  /// are *removed* from the sequence (the consumer sees index gaps, as a
  /// real lossy link would deliver).
  FrameSequence observe(const SceneSequence& scene, Rng& rng);

  /// Single-frame path; nullopt when the plan drops the frame.
  std::optional<FrameCloud> observe_frame(const SceneFrame& frame, Rng& rng);

  const RadarSensor& inner() const { return inner_; }
  FaultInjector& injector() { return injector_; }

 private:
  RadarSensor inner_;
  FaultInjector injector_;
};

// ------------------------------------------------- artifact bit corruption

/// Flips `flips` pseudo-random bits (seed-deterministic positions) in
/// blob[offset, size). Offset defaults past a 4-byte tag + version byte so
/// corruption lands in the payload, exercising the hardened readers rather
/// than only the tag check. No-op on blobs shorter than offset + 1.
void flip_bits(std::string& blob, std::size_t flips, std::uint64_t seed,
               std::size_t offset = 5);

}  // namespace gp::faults
