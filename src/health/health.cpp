#include "health/health.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "health/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gp::health {

namespace {

constexpr std::uint64_t kNsPerUs = 1000;

/// Wall-clock snapshot windows (label, horizon). The SLO itself never uses
/// these — it runs on the deterministic tick window (slo.hpp).
struct WallWindow {
  const char* label;
  std::uint64_t horizon_ns;
};
constexpr WallWindow kWallWindows[] = {
    {"1s", 1'000'000'000ULL},
    {"10s", 10'000'000'000ULL},
    {"60s", 60'000'000'000ULL},
};

std::uint64_t env_u64(const char* name, std::uint64_t fallback, std::uint64_t min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || parsed < min_value) {
    log_warn() << "ignoring invalid " << name << "='" << v << "' (want an integer >= "
               << min_value << ")";
    return fallback;
  }
  return static_cast<std::uint64_t>(parsed);
}

bool env_is_off(const char* value) {
  return value != nullptr &&
         (std::string_view(value) == "off" || std::string_view(value) == "0");
}

void merge_version(std::vector<VersionCount>& mix, std::uint64_t version, std::uint64_t count) {
  for (VersionCount& vc : mix) {
    if (vc.version == version) {
      vc.count += count;
      return;
    }
  }
  mix.push_back({version, count});
}

double rate(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

// ------------------------------------------------------------------ stages

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kAdmissionWait: return "admission_wait";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kBatchWait: return "batch_wait";
    case Stage::kForward: return "forward";
    case Stage::kEpilogue: return "epilogue";
  }
  return "?";
}

Stage RequestSample::slowest_stage() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kStageCount; ++i) {
    if (stage_us[i] > stage_us[best]) best = i;
  }
  return static_cast<Stage>(best);
}

// ------------------------------------------------------------------ config

HealthConfig HealthConfig::from_env() { return from_env(HealthConfig{}); }

HealthConfig HealthConfig::from_env(HealthConfig base) {
  if (env_is_off(std::getenv("GP_HEALTH"))) base.enabled = false;
  base.window_ticks = env_u64("GP_HEALTH_WINDOW_TICKS", base.window_ticks, 2);
  if (const char* spec = std::getenv("GP_SLO"); spec != nullptr && *spec != '\0') {
    try {
      base.slo = SloSpec::parse(spec);
    } catch (const InvalidArgument& e) {
      log_warn() << "ignoring GP_SLO: " << e.what();
    }
  }
  if (const char* rec = std::getenv("GP_FLIGHTREC"); rec != nullptr && *rec != '\0') {
    if (env_is_off(rec)) {
      base.flightrec = false;
      base.flightrec_path.clear();
    } else {
      base.flightrec = true;
      base.flightrec_path = rec;
    }
  }
  return base;
}

// ---------------------------------------------------------------- tick ring

std::size_t latency_bucket(std::uint64_t us) {
  return std::min<std::size_t>(kLatencyBuckets - 1,
                               static_cast<std::size_t>(std::bit_width(us)));
}

void TickCell::clear() {
  *this = TickCell{};
}

void WindowAgg::add(const TickCell& cell) {
  ++ticks;
  counts += cell.counts;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) lat[b] += cell.lat[b];
}

void WindowAgg::sub(const TickCell& cell) {
  --ticks;
  counts -= cell.counts;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) lat[b] -= cell.lat[b];
}

double WindowAgg::quantile_us(double q) const {
  std::uint64_t count = 0;
  for (std::uint64_t n : lat) count += n;
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    if (lat[b] == 0) continue;
    const std::uint64_t next = seen + lat[b];
    if (static_cast<double>(next) >= target) {
      // Interpolate linearly inside [2^(b-1), 2^b) by rank position.
      const double lower = b == 0 ? 0.0 : static_cast<double>(1ULL << (b - 1));
      const double upper = static_cast<double>(1ULL << b);
      const double frac = lat[b] == 0
                              ? 0.0
                              : (target - static_cast<double>(seen)) /
                                    static_cast<double>(lat[b]);
      return lower + std::clamp(frac, 0.0, 1.0) * (upper - lower);
    }
    seen = next;
  }
  return static_cast<double>(1ULL << (kLatencyBuckets - 1));
}

double WindowAgg::sli(SliMetric m, std::uint64_t batch_max) const {
  const EventCounts& c = counts;
  switch (m) {
    case SliMetric::kP50Ms: return quantile_us(0.5) / 1000.0;
    case SliMetric::kP95Ms: return quantile_us(0.95) / 1000.0;
    case SliMetric::kP99Ms: return quantile_us(0.99) / 1000.0;
    case SliMetric::kShedRate:
      return rate(c.frames_rejected, c.frames_admitted + c.frames_rejected);
    case SliMetric::kAbstainRate: return rate(c.abstained, c.segments);
    case SliMetric::kQualityRejectRate: return rate(c.quality_rejected, c.segments);
    case SliMetric::kNoModelRate: return rate(c.no_model, c.segments);
    case SliMetric::kFaultRate: return rate(c.fault_drops, c.frames_admitted);
    case SliMetric::kBatchOccupancy: return rate(c.segments, c.batches * batch_max);
  }
  return 0.0;
}

// ----------------------------------------------------------------- monitor

HealthMonitor::HealthMonitor(const HealthConfig& config, std::uint64_t batch_max)
    : config_(config),
      batch_max_(batch_max == 0 ? 1 : batch_max),
      effective_slo_(config.slo.value_or(SloSpec{})),
      tracker_(effective_slo_),
      ticks_counter_(&obs::counter("gp.health.ticks")),
      requests_counter_(&obs::counter("gp.health.requests")),
      breaches_counter_(&obs::counter("gp.health.slo.breaches")),
      flips_counter_(&obs::counter("gp.health.verdict.flips")),
      verdict_gauge_(&obs::gauge("gp.health.verdict")),
      p99_gauge_(&obs::gauge("gp.health.p99_us")),
      shed_gauge_(&obs::gauge("gp.health.shed_rate")) {
  // Ring must out-live the rolling window by one cell so the evicted cell is
  // still readable when it is subtracted from the aggregate.
  const std::uint64_t cap =
      std::max<std::uint64_t>(config_.window_ticks, effective_slo_.window_ticks + 1);
  ring_.resize(static_cast<std::size_t>(cap));
  FlightRecorder::global().set_enabled(config_.flightrec && config_.enabled);
  if (config_.enabled && !config_.flightrec_path.empty()) {
    install_crash_dump(config_.flightrec_path);
  }
}

void HealthMonitor::record_request(const RequestSample& sample, std::uint64_t model_version) {
  if (!config_.enabled) return;
  RequestSample s = sample;
  if (config_.debug_slow_stage >= 0 &&
      config_.debug_slow_stage < static_cast<int>(kStageCount) && config_.debug_slow_us > 0) {
    // Telemetry-only spike: inflates the recorded breakdown, never results.
    s.stage_us[static_cast<std::size_t>(config_.debug_slow_stage)] += config_.debug_slow_us;
    s.total_us += config_.debug_slow_us;
  }
  ++open_.lat[latency_bucket(s.total_us)];
  for (VersionCount& vc : open_.versions) {
    if (vc.count == 0 || vc.version == model_version) {
      vc.version = model_version;
      ++vc.count;
      break;
    }
    if (&vc == &open_.versions.back()) ++vc.count;  // overflow folds into last slot
  }
  if (!open_.has_exemplar || s.total_us > open_.exemplar.total_us) {
    open_.has_exemplar = true;
    open_.exemplar = s;
  }
}

void HealthMonitor::record_batch(std::uint64_t segments, std::uint64_t model_version) {
  if (!config_.enabled) return;
  FlightRecorder::global().record(EventKind::kBatchFlush, open_.tick, segments, model_version);
}

void HealthMonitor::close_tick(std::uint64_t tick, const EventCounts& counts) {
  if (!config_.enabled) return;
  open_.tick = tick;
  open_.end_ns = monotonic_ns();
  open_.counts = counts;

  const std::uint64_t cap = ring_.size();
  ring_[static_cast<std::size_t>(closed_ % cap)] = open_;
  agg_.add(open_);
  const std::uint64_t window = effective_slo_.window_ticks;
  if (closed_ >= window) {
    agg_.sub(ring_[static_cast<std::size_t>((closed_ - window) % cap)]);
  }

  if (config_.slo.has_value()) {
    bool breached = false;
    for (const SloClause& clause : effective_slo_.clauses) {
      const double value = agg_.sli(clause.metric, batch_max_);
      const bool violated = clause.upper_bound ? value >= clause.threshold
                                               : value <= clause.threshold;
      breached = breached || violated;
    }
    if (breached) {
      ++breaches_total_;
      breaches_counter_->add(1);
    }
    const Verdict before = tracker_.verdict();
    if (tracker_.evaluate(breached)) {
      flips_counter_->add(1);
      FlightRecorder::global().record(EventKind::kVerdictFlip, tick,
                                      static_cast<std::uint64_t>(before),
                                      static_cast<std::uint64_t>(tracker_.verdict()),
                                      tracker_.flips());
    }
  }

  if (open_.has_exemplar) {
    ExemplarRecord& slot = exemplars_[static_cast<std::size_t>(exemplar_count_ % kExemplarRing)];
    slot.sample = open_.exemplar;
    slot.tick = tick;
    slot.end_ns = open_.end_ns;
    ++exemplar_count_;
  }

  ticks_counter_->add(1);
  requests_counter_->add(open_.counts.segments);
  verdict_gauge_->set(static_cast<double>(tracker_.verdict()));
  p99_gauge_->set(agg_.quantile_us(0.99));
  shed_gauge_->set(agg_.sli(SliMetric::kShedRate, batch_max_));

  ++closed_;
  open_.clear();
}

WindowStats HealthMonitor::window_stats_from(const WindowAgg& agg, const char* label,
                                             const std::vector<VersionCount>& mix) const {
  WindowStats w;
  w.label = label;
  w.ticks = agg.ticks;
  w.counts = agg.counts;
  w.p50_ms = agg.sli(SliMetric::kP50Ms, batch_max_);
  w.p95_ms = agg.sli(SliMetric::kP95Ms, batch_max_);
  w.p99_ms = agg.sli(SliMetric::kP99Ms, batch_max_);
  w.shed_rate = agg.sli(SliMetric::kShedRate, batch_max_);
  w.abstain_rate = agg.sli(SliMetric::kAbstainRate, batch_max_);
  w.quality_reject_rate = agg.sli(SliMetric::kQualityRejectRate, batch_max_);
  w.no_model_rate = agg.sli(SliMetric::kNoModelRate, batch_max_);
  w.fault_rate = agg.sli(SliMetric::kFaultRate, batch_max_);
  w.batch_occupancy = agg.sli(SliMetric::kBatchOccupancy, batch_max_);
  w.version_mix = mix;
  std::sort(w.version_mix.begin(), w.version_mix.end(),
            [](const VersionCount& a, const VersionCount& b) { return a.version < b.version; });
  return w;
}

HealthSnapshot HealthMonitor::snapshot() const {
  HealthSnapshot snap;
  snap.enabled = config_.enabled;
  snap.ticks_closed = closed_;
  snap.has_slo = config_.slo.has_value();
  if (snap.has_slo) snap.slo_spec = effective_slo_.to_string();
  snap.verdict = tracker_.verdict();
  snap.breach_streak = tracker_.breach_streak();
  snap.ok_streak = tracker_.ok_streak();
  snap.verdict_flips = tracker_.flips();
  snap.breaches_total = breaches_total_;
  snap.flightrec_events = FlightRecorder::global().total();

  const std::uint64_t cap = ring_.size();
  const std::uint64_t live = std::min(closed_, cap);

  // SLO window: reuse the incremental aggregate; version mix + exemplar by
  // scanning the window's cells.
  {
    std::vector<VersionCount> mix;
    const std::uint64_t window = std::min(effective_slo_.window_ticks, closed_);
    for (std::uint64_t i = closed_ - window; i < closed_; ++i) {
      const TickCell& cell = ring_[static_cast<std::size_t>(i % cap)];
      for (const VersionCount& vc : cell.versions) {
        if (vc.count > 0) merge_version(mix, vc.version, vc.count);
      }
      if (cell.has_exemplar &&
          (!snap.has_exemplar || cell.exemplar.total_us > snap.exemplar.sample.total_us)) {
        // Sampling rule (§10): the slowest request in the window is kept as
        // the upper-bound exemplar for the window's p99.
        snap.has_exemplar = true;
        snap.exemplar.sample = cell.exemplar;
        snap.exemplar.tick = cell.tick;
        snap.exemplar.end_ns = cell.end_ns;
      }
    }
    snap.slo_window = window_stats_from(agg_, "slo", mix);
  }

  // Wall-clock windows: rebuilt by scan over cells young enough.
  const std::uint64_t now = monotonic_ns();
  for (const WallWindow& ww : kWallWindows) {
    WindowAgg agg;
    std::vector<VersionCount> mix;
    const std::uint64_t cutoff = now > ww.horizon_ns ? now - ww.horizon_ns : 0;
    for (std::uint64_t i = closed_ - live; i < closed_; ++i) {
      const TickCell& cell = ring_[static_cast<std::size_t>(i % cap)];
      if (cell.end_ns < cutoff) continue;
      agg.add(cell);
      for (const VersionCount& vc : cell.versions) {
        if (vc.count > 0) merge_version(mix, vc.version, vc.count);
      }
    }
    snap.wall_windows.push_back(window_stats_from(agg, ww.label, mix));
  }
  return snap;
}

std::string HealthMonitor::exemplar_trace_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  out << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"gestureprint.health.exemplars\"}}";
  const std::uint64_t live = std::min<std::uint64_t>(exemplar_count_, kExemplarRing);
  for (std::uint64_t i = exemplar_count_ - live; i < exemplar_count_; ++i) {
    const ExemplarRecord& rec = exemplars_[static_cast<std::size_t>(i % kExemplarRing)];
    // Synthetic timeline: stages laid end-to-end, anchored so the request
    // finishes at the close of the tick that captured it.
    const std::uint64_t total_ns = rec.sample.total_us * kNsPerUs;
    std::uint64_t cursor_ns = rec.end_ns > total_ns ? rec.end_ns - total_ns : 0;
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const std::uint64_t dur_ns = rec.sample.stage_us[s] * kNsPerUs;
      out << ",\n  {\"name\": \"req." << stage_name(static_cast<Stage>(s))
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << rec.sample.session_id
          << ", \"ts\": " << cursor_ns / kNsPerUs << ", \"dur\": " << dur_ns / kNsPerUs
          << ", \"args\": {\"request_id\": " << rec.sample.request_id
          << ", \"ordinal\": " << rec.sample.ordinal << ", \"tick\": " << rec.tick << "}}";
      cursor_ns += dur_ns;
    }
  }
  out << "\n]}\n";
  return out.str();
}

// ---------------------------------------------------------------- snapshot

namespace {

void window_json(std::ostream& out, const WindowStats& w, const std::string& pad) {
  namespace json = obs::json;
  out << pad << "{\"window\": \"" << json::escape(w.label) << "\", \"ticks\": " << w.ticks;
  for (const EventInfo& e : kEvents) {
    if (e.window_key != nullptr) out << ", \"" << e.window_key << "\": " << w.counts.*e.member;
  }
  out << ",\n"
      << pad << " \"p50_ms\": " << json::number(w.p50_ms)
      << ", \"p95_ms\": " << json::number(w.p95_ms) << ", \"p99_ms\": " << json::number(w.p99_ms)
      << ", \"shed_rate\": " << json::number(w.shed_rate)
      << ", \"abstain_rate\": " << json::number(w.abstain_rate)
      << ", \"quality_reject_rate\": " << json::number(w.quality_reject_rate)
      << ", \"no_model_rate\": " << json::number(w.no_model_rate)
      << ", \"fault_rate\": " << json::number(w.fault_rate)
      << ", \"batch_occupancy\": " << json::number(w.batch_occupancy)
      << ", \"version_mix\": [";
  for (std::size_t i = 0; i < w.version_mix.size(); ++i) {
    out << (i ? ", " : "") << "{\"version\": " << w.version_mix[i].version
        << ", \"count\": " << w.version_mix[i].count << "}";
  }
  out << "]}";
}

}  // namespace

std::string HealthSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream out;
  out << pad << "{\"health\": {\n";
  out << pad << "  \"enabled\": " << (enabled ? "true" : "false")
      << ", \"ticks_closed\": " << ticks_closed << ",\n";
  out << pad << "  \"slo\": {\"present\": " << (has_slo ? "true" : "false") << ", \"spec\": \""
      << obs::json::escape(slo_spec) << "\", \"verdict\": \"" << verdict_name(verdict)
      << "\", \"breach_streak\": " << breach_streak << ", \"ok_streak\": " << ok_streak
      << ", \"verdict_flips\": " << verdict_flips << ", \"breaches_total\": " << breaches_total
      << "},\n";
  out << pad << "  \"windows\": [\n";
  window_json(out, slo_window, pad + "    ");
  for (const WindowStats& w : wall_windows) {
    out << ",\n";
    window_json(out, w, pad + "    ");
  }
  out << "\n" << pad << "  ],\n";
  out << pad << "  \"exemplar\": {\"present\": " << (has_exemplar ? "true" : "false");
  if (has_exemplar) {
    out << ", \"request_id\": " << exemplar.sample.request_id
        << ", \"session\": " << exemplar.sample.session_id
        << ", \"ordinal\": " << exemplar.sample.ordinal << ", \"tick\": " << exemplar.tick
        << ", \"total_us\": " << exemplar.sample.total_us << ", \"slowest_stage\": \""
        << stage_name(exemplar.sample.slowest_stage()) << "\", \"stages\": {";
    for (std::size_t s = 0; s < kStageCount; ++s) {
      out << (s ? ", " : "") << "\"" << stage_name(static_cast<Stage>(s))
          << "_us\": " << exemplar.sample.stage_us[s];
    }
    out << "}";
  }
  out << "},\n";
  out << pad << "  \"flightrec_events\": " << flightrec_events << "\n";
  out << pad << "}}";
  return out.str();
}

}  // namespace gp::health
