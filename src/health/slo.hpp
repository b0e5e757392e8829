// Declarative SLO specs for the serving health monitor (DESIGN.md §10).
//
// A spec is a comma-separated list of clauses plus options, e.g.
//
//   GP_SLO="p99_ms<5,shed_rate<0.05,window=256t,degraded_after=3"
//
// Clauses bound an SLI computed over the rolling tick window (`<` means the
// value must stay below the threshold, `>` that it must stay above); an
// evaluation *breaches* when any clause is violated. Options tune the window
// length (ticks only: `window=<N>t` — wall-clock windows live in the SLI
// snapshot, the SLO itself is evaluated on the deterministic tick ring) and
// the hysteresis streaks: `degraded_after` consecutive breaching evaluations
// flip healthy→degraded, `unhealthy_after` flip degraded→unhealthy, and
// `healthy_after` consecutive clean evaluations recover to healthy from
// either state. parse() throws gp::InvalidArgument on malformed input (the
// GP_SLO env path warns and keeps the fallback instead — see
// HealthConfig::from_env).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gp::health {

/// Tri-state health verdict with hysteresis (§10). Order matters: higher is
/// worse, and the numeric value is exported through the gp.health.verdict
/// gauge.
enum class Verdict { kHealthy = 0, kDegraded = 1, kUnhealthy = 2 };
const char* verdict_name(Verdict v);

/// The SLIs a clause may bound. Latency quantiles are in milliseconds over
/// the window's per-request end-to-end latencies; rates are in [0,1].
enum class SliMetric {
  kP50Ms = 0,
  kP95Ms,
  kP99Ms,
  kShedRate,          ///< queue-full rejects / frames offered
  kAbstainRate,       ///< abstained results / results
  kQualityRejectRate, ///< quality-rejected results / results
  kNoModelRate,       ///< no-model refusals / results
  kFaultRate,         ///< injector-dropped frames / frames accepted
  kBatchOccupancy,    ///< segments / (batches * batch_max)
};
inline constexpr std::size_t kSliMetricCount = 9;
const char* sli_metric_name(SliMetric m);

struct SloClause {
  SliMetric metric = SliMetric::kP99Ms;
  bool upper_bound = true;  ///< true: breach when value >= threshold ('<')
  double threshold = 0.0;
};

struct SloSpec {
  std::vector<SloClause> clauses;
  std::uint64_t window_ticks = 256;   ///< evaluation window (tick ring cells)
  std::uint64_t degraded_after = 3;   ///< breach streak: healthy → degraded
  std::uint64_t unhealthy_after = 10; ///< breach streak: degraded → unhealthy
  std::uint64_t healthy_after = 3;    ///< clean streak: back to healthy

  /// Parses the spec grammar above; throws gp::InvalidArgument with the
  /// offending token on malformed input. An empty spec is invalid.
  static SloSpec parse(std::string_view text);

  /// Canonical round-trippable form (parse(to_string()) == *this).
  std::string to_string() const;
};

/// The hysteresis state machine: feed one evaluation outcome per tick,
/// read the verdict. Pure and allocation-free — drive it from tests
/// directly or through HealthMonitor.
class VerdictTracker {
 public:
  explicit VerdictTracker(const SloSpec& spec) : spec_(&spec) {}

  /// Returns true when the verdict flipped on this evaluation.
  bool evaluate(bool breached);

  Verdict verdict() const { return verdict_; }
  std::uint64_t breach_streak() const { return breach_streak_; }
  std::uint64_t ok_streak() const { return ok_streak_; }
  std::uint64_t flips() const { return flips_; }

 private:
  const SloSpec* spec_;
  Verdict verdict_ = Verdict::kHealthy;
  std::uint64_t breach_streak_ = 0;
  std::uint64_t ok_streak_ = 0;
  std::uint64_t flips_ = 0;
};

}  // namespace gp::health
