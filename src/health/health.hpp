// gp::health — per-request tracing, rolling SLI windows, SLO verdicts, and
// the serve-stack flight recorder (DESIGN.md §10).
//
// The HealthMonitor rides the serve tick: the pump thread records
// per-request stage breakdowns into an *open* tick cell, and close_tick()
// takes the tick's EventCounts delta (counted once by the server's shards
// and batcher), folds the cell into a preallocated ring plus an
// incrementally-maintained rolling-window aggregate that feeds the SLO
// evaluator. Nothing on the tick path allocates (ServeSteadyTickZeroAlloc
// holds with health enabled) and nothing here ever feeds back into serve
// results — health on/off is bitwise-invisible to ServeResult streams.
//
// Threading contract: every method belongs to the pump thread —
// record_request / record_batch / close_tick run inside a pump, and
// snapshot() / exemplar_trace_json() must not race close_tick (call them
// between pumps, like Server::stats).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "health/events.hpp"
#include "health/slo.hpp"

namespace gp::obs {
class Counter;
class Gauge;
}  // namespace gp::obs

namespace gp::health {

// ------------------------------------------------------------------ stages

/// Per-request stage taxonomy. A request's end-to-end latency decomposes as
///   admission_wait : frame admitted -> its shard drain began
///   queue_wait     : shard drain began -> segment submitted to the batcher
///                    (includes featurization)
///   batch_wait     : batcher submit -> the flush that served it started
///   forward        : the flush's decide_batch call (shared by the batch)
///   epilogue       : the rest of the flush (row staging, enroll gate, fill)
enum class Stage {
  kAdmissionWait = 0,
  kQueueWait,
  kBatchWait,
  kForward,
  kEpilogue,
};
inline constexpr std::size_t kStageCount = 5;
const char* stage_name(Stage s);

/// One served request's timing breakdown, keyed by the RequestId minted at
/// admission and audited on ServeResult::request_id.
struct RequestSample {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::uint64_t ordinal = 0;
  std::uint64_t total_us = 0;
  std::array<std::uint64_t, kStageCount> stage_us{};

  Stage slowest_stage() const;
};

// ------------------------------------------------------------------ config

struct HealthConfig {
  bool enabled = true;             ///< GP_HEALTH=off|0 disables the monitor
  std::uint64_t window_ticks = 2048;  ///< tick ring capacity (GP_HEALTH_WINDOW_TICKS)
  std::optional<SloSpec> slo;      ///< GP_SLO (malformed spec warns + keeps base)
  bool flightrec = true;           ///< GP_FLIGHTREC=off|0 disables the recorder
  std::string flightrec_path;      ///< GP_FLIGHTREC=<path>: crash-dump target

  /// Telemetry-only test hook: inflate the *recorded* time of one stage by
  /// debug_slow_us per request (results are untouched — this is how
  /// test_health injects an attributable p99 spike).
  int debug_slow_stage = -1;
  std::uint64_t debug_slow_us = 0;

  /// Applies GP_HEALTH / GP_HEALTH_WINDOW_TICKS / GP_SLO / GP_FLIGHTREC on
  /// top of `base`, warn-and-keep on malformed values (serve config idiom).
  static HealthConfig from_env();
  static HealthConfig from_env(HealthConfig base);
};

// ---------------------------------------------------------------- tick ring

/// Power-of-two latency histogram: bucket b holds total_us in [2^(b-1), 2^b).
/// Coarser than obs::Histogram on purpose — 40 * u32 per cell keeps the ring
/// copy cheap; quantiles interpolate inside the bucket (±2x resolution is
/// plenty for verdict thresholds, exact tails live in gp.serve histograms).
inline constexpr std::size_t kLatencyBuckets = 40;
std::size_t latency_bucket(std::uint64_t us);

/// Per-cell model-version mix slots (a tick rarely sees more than two
/// versions mid-hot-swap; overflow versions fold into the last slot).
inline constexpr std::size_t kVersionSlots = 4;
struct VersionCount {
  std::uint64_t version = 0;
  std::uint64_t count = 0;
};

/// One closed serve tick's worth of health facts. Plain fields: the open
/// cell is pump-thread single-writer; closed cells are immutable ring slots.
struct TickCell {
  std::uint64_t tick = 0;
  std::uint64_t end_ns = 0;
  EventCounts counts;
  std::array<std::uint32_t, kLatencyBuckets> lat{};
  std::array<VersionCount, kVersionSlots> versions{};
  bool has_exemplar = false;
  RequestSample exemplar;  ///< worst total_us seen this tick

  void clear();
};

/// Sums of TickCell counts over a window, maintained incrementally for the
/// SLO window (add the new cell, subtract the one that left) and rebuilt by
/// scan for the wall-clock snapshot windows.
struct WindowAgg {
  std::uint64_t ticks = 0;
  EventCounts counts;
  std::array<std::uint64_t, kLatencyBuckets> lat{};

  void add(const TickCell& cell);
  void sub(const TickCell& cell);
  /// Interpolated quantile (q in [0,1]) over the power-of-two buckets, µs.
  double quantile_us(double q) const;
  /// The SLI a SloClause bounds (rates are 0 on a zero denominator).
  double sli(SliMetric m, std::uint64_t batch_max) const;
};

// ---------------------------------------------------------------- snapshot

struct WindowStats {
  std::string label;  ///< "slo" | "1s" | "10s" | "60s"
  std::uint64_t ticks = 0;
  EventCounts counts;  ///< JSON columns: the events with a window_key
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  double abstain_rate = 0.0;
  double quality_reject_rate = 0.0;
  double no_model_rate = 0.0;
  double fault_rate = 0.0;
  double batch_occupancy = 0.0;
  std::vector<VersionCount> version_mix;  ///< sorted by version
};

struct ExemplarRecord {
  RequestSample sample;
  std::uint64_t tick = 0;
  std::uint64_t end_ns = 0;  ///< close time of the tick that captured it
};

struct HealthSnapshot {
  bool enabled = false;
  std::uint64_t ticks_closed = 0;
  bool has_slo = false;
  std::string slo_spec;
  Verdict verdict = Verdict::kHealthy;
  std::uint64_t breach_streak = 0;
  std::uint64_t ok_streak = 0;
  std::uint64_t verdict_flips = 0;
  std::uint64_t breaches_total = 0;
  WindowStats slo_window;          ///< the SLO tick window (or last 256 ticks)
  std::vector<WindowStats> wall_windows;  ///< 1s / 10s / 60s
  bool has_exemplar = false;
  ExemplarRecord exemplar;  ///< worst request in the SLO window
  std::uint64_t flightrec_events = 0;

  /// {"health": {...}} — parse it back with gp::obs::json.
  std::string to_json(int indent = 0) const;
};

// ----------------------------------------------------------------- monitor

class HealthMonitor {
 public:
  /// `batch_max` feeds the batch-occupancy SLI. All rings preallocate here.
  HealthMonitor(const HealthConfig& config, std::uint64_t batch_max);

  bool enabled() const { return config_.enabled; }
  const HealthConfig& config() const { return config_; }

  // Pump-thread recorders.
  void record_request(const RequestSample& sample, std::uint64_t model_version);
  /// Flight-recorder entry for one flush.
  void record_batch(std::uint64_t segments, std::uint64_t model_version);
  /// Stores the tick's event delta in the open cell, folds the cell into the
  /// ring, advances the SLO window, evaluates the verdict, and publishes
  /// gp.health.* metrics. Allocation-free.
  void close_tick(std::uint64_t tick, const EventCounts& counts);

  // Off the tick path.
  HealthSnapshot snapshot() const;
  /// Chrome-trace JSON of the exemplar ring: per exemplar, one "X" event per
  /// stage laid end-to-end (synthetic timeline anchored at the capturing
  /// tick's close), named "req.<stage>", tid = session id.
  std::string exemplar_trace_json() const;

  std::uint64_t ticks_closed() const { return closed_; }
  Verdict verdict() const { return tracker_.verdict(); }
  std::uint64_t verdict_flips() const { return tracker_.flips(); }

  static constexpr std::size_t kExemplarRing = 32;

 private:
  WindowStats window_stats_from(const WindowAgg& agg, const char* label,
                                const std::vector<VersionCount>& mix) const;

  HealthConfig config_;
  std::uint64_t batch_max_;
  SloSpec effective_slo_;  ///< config_.slo or a default window for SLI-only mode
  VerdictTracker tracker_;

  std::vector<TickCell> ring_;
  std::uint64_t closed_ = 0;
  TickCell open_;
  WindowAgg agg_;  ///< rolling sums over the last effective_slo_.window_ticks
  std::uint64_t breaches_total_ = 0;

  std::array<ExemplarRecord, kExemplarRing> exemplars_{};
  std::uint64_t exemplar_count_ = 0;

  obs::Counter* ticks_counter_;
  obs::Counter* requests_counter_;
  obs::Counter* breaches_counter_;
  obs::Counter* flips_counter_;
  obs::Gauge* verdict_gauge_;
  obs::Gauge* p99_gauge_;
  obs::Gauge* shed_gauge_;
};

}  // namespace gp::health
