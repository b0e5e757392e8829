#include "faults/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "exec/exec.hpp"
#include "obs/metrics.hpp"

namespace gp::faults {

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

/// Canonical FNV-1a (common/fnv.hpp); all schedule values are deterministic,
/// so raw IEEE bits are a stable digest basis.
struct Fnv {
  std::uint64_t h = fnv::kOffsetBasis;
  void bytes(const void* data, std::size_t n) { h = fnv::accumulate(h, data, n); }
  template <typename T>
  void value(const T& v) {
    h = fnv::accumulate_value(h, v);
  }
};

}  // namespace

// ------------------------------------------------------------------ config

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFrameDrop: return "frame_drop";
    case FaultKind::kBurstDrop: return "burst_drop";
    case FaultKind::kDutyCycle: return "duty_cycle";
    case FaultKind::kInterference: return "interference";
    case FaultKind::kTruncation: return "truncation";
    case FaultKind::kJitter: return "jitter";
  }
  return "?";
}

const std::vector<FaultKind>& all_fault_kinds() {
  static const std::vector<FaultKind> kinds{
      FaultKind::kFrameDrop,    FaultKind::kBurstDrop,  FaultKind::kDutyCycle,
      FaultKind::kInterference, FaultKind::kTruncation, FaultKind::kJitter,
  };
  return kinds;
}

bool FaultConfig::enabled() const {
  return drop_prob > 0.0 || burst_enter > 0.0 ||
         (dutycycle_period > 0 && dutycycle_off > 0) || interference_prob > 0.0 ||
         truncation_prob > 0.0 || jitter_sigma_s > 0.0 || reorder_prob > 0.0;
}

FaultConfig FaultConfig::preset(FaultKind kind, double severity, std::uint64_t seed) {
  const double s = clamp01(severity);
  FaultConfig config;
  config.seed = seed;
  switch (kind) {
    case FaultKind::kFrameDrop:
      config.drop_prob = 0.6 * s;
      break;
    case FaultKind::kBurstDrop:
      config.burst_enter = 0.10 * s;
      config.burst_exit = 0.25;
      config.burst_drop_prob = 0.9;
      break;
    case FaultKind::kDutyCycle:
      config.dutycycle_period = 40;
      config.dutycycle_off = static_cast<std::size_t>(std::lround(20.0 * s));
      break;
    case FaultKind::kInterference:
      config.interference_prob = 0.5 * s;
      config.interference_points = 50;
      break;
    case FaultKind::kTruncation:
      config.truncation_prob = 0.8 * s;
      config.truncation_keep = std::max(0.05, 1.0 - 0.75 * s);
      break;
    case FaultKind::kJitter:
      config.jitter_sigma_s = 0.05 * s;
      config.reorder_prob = 0.3 * s;
      break;
  }
  return config;
}

FaultConfig FaultConfig::mixed(double severity, std::uint64_t seed) {
  const double s = clamp01(severity);
  FaultConfig config;
  config.seed = seed;
  config.drop_prob = 0.25 * s;
  config.burst_enter = 0.04 * s;
  config.interference_prob = 0.2 * s;
  config.interference_points = 40;
  config.truncation_prob = 0.3 * s;
  config.truncation_keep = std::max(0.05, 1.0 - 0.6 * s);
  config.jitter_sigma_s = 0.02 * s;
  config.reorder_prob = 0.1 * s;
  return config;
}

FaultConfig FaultConfig::from_spec(const std::string& spec) {
  FaultConfig config;
  std::istringstream in(spec);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    check_arg(eq != std::string::npos && eq > 0,
              "GP_FAULTS token is not key=value: '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string raw = token.substr(eq + 1);
    double value = 0.0;
    try {
      std::size_t used = 0;
      value = std::stod(raw, &used);
      check_arg(used == raw.size(), "trailing junk");
    } catch (const std::exception&) {
      throw InvalidArgument("GP_FAULTS value for '" + key + "' is not a number: '" + raw +
                            "'");
    }
    if (key == "seed") {
      config.seed = static_cast<std::uint64_t>(value);
    } else if (key == "mixed") {
      config = mixed(value, config.seed);
    } else if (key == "drop") {
      config.drop_prob = value;
    } else if (key == "burst") {
      config.burst_enter = value;
    } else if (key == "burst_exit") {
      config.burst_exit = value;
    } else if (key == "burst_drop") {
      config.burst_drop_prob = value;
    } else if (key == "duty_period") {
      config.dutycycle_period = static_cast<std::size_t>(value);
    } else if (key == "duty_off") {
      config.dutycycle_off = static_cast<std::size_t>(value);
    } else if (key == "ghost") {
      config.interference_prob = value;
    } else if (key == "ghost_points") {
      config.interference_points = static_cast<std::size_t>(value);
    } else if (key == "trunc") {
      config.truncation_prob = value;
    } else if (key == "trunc_keep") {
      config.truncation_keep = value;
    } else if (key == "jitter") {
      config.jitter_sigma_s = value;
    } else if (key == "reorder") {
      config.reorder_prob = value;
    } else {
      throw InvalidArgument("GP_FAULTS: unknown key '" + key + "'");
    }
  }
  return config;
}

std::optional<FaultConfig> FaultConfig::from_env() {
  const char* v = std::getenv("GP_FAULTS");
  if (v == nullptr || *v == '\0') return std::nullopt;
  const std::string s(v);
  if (s == "off" || s == "0") return std::nullopt;
  return from_spec(s);
}

// -------------------------------------------------------------------- plan

FaultPlan::FaultPlan(FaultConfig config, std::size_t initial_horizon)
    : config_(config) {
  ensure(initial_horizon);
}

void FaultPlan::ensure(std::size_t n) {
  if (n > frames_.size()) extend_to(n);
}

const FrameFault& FaultPlan::at(std::size_t frame_index) {
  ensure(frame_index + 1);
  return frames_[frame_index];
}

void FaultPlan::extend_to(std::size_t n) {
  frames_.reserve(n);
  for (std::size_t i = frames_.size(); i < n; ++i) {
    // One independent child stream per frame with a *fixed draw order*, so
    // every decision is a pure function of (seed, frame index) and the
    // uniforms are shared across severity levels (common random numbers).
    Rng rng(exec::child_seed(config_.seed, i), 0x9E3779B97F4A7C15ULL);
    const double u_drop = rng.uniform();
    const double u_burst_transition = rng.uniform();
    const double u_burst_drop = rng.uniform();
    const double u_truncate = rng.uniform();
    const double u_keep = rng.uniform();
    const double u_ghost = rng.uniform();
    const double u_ghost_count = rng.uniform();
    const double g_jitter = rng.gaussian();
    const double u_reorder = rng.uniform();

    // Gilbert–Elliott channel state marches sequentially over frames.
    if (burst_bad_) {
      if (u_burst_transition < config_.burst_exit) burst_bad_ = false;
    } else {
      if (u_burst_transition < config_.burst_enter) burst_bad_ = true;
    }

    FrameFault fault;
    fault.point_seed = exec::child_seed(config_.seed ^ 0xC0FFEEULL, i);
    bool drop = u_drop < config_.drop_prob;
    if (burst_bad_ && u_burst_drop < config_.burst_drop_prob) drop = true;
    if (config_.dutycycle_period > 0 && config_.dutycycle_off > 0 &&
        i % config_.dutycycle_period < config_.dutycycle_off) {
      drop = true;
    }
    fault.drop = drop;
    if (!drop) {
      if (u_truncate < config_.truncation_prob) {
        fault.truncate = true;
        fault.keep_fraction = std::min(
            1.0, std::max(0.05, config_.truncation_keep * (0.75 + 0.5 * u_keep)));
      }
      if (u_ghost < config_.interference_prob) {
        fault.ghost_points = static_cast<std::uint32_t>(std::lround(
            static_cast<double>(config_.interference_points) * (0.5 + u_ghost_count)));
      }
      if (config_.jitter_sigma_s > 0.0) fault.jitter_s = g_jitter * config_.jitter_sigma_s;
      fault.swap_with_next = u_reorder < config_.reorder_prob;
    }
    frames_.push_back(fault);
  }
}

FaultPlan::Totals FaultPlan::totals(std::size_t n) {
  ensure(n);
  Totals t;
  for (std::size_t i = 0; i < n; ++i) {
    const FrameFault& f = frames_[i];
    t.drops += f.drop ? 1 : 0;
    t.truncated += f.truncate ? 1 : 0;
    t.ghost_points += f.ghost_points;
    t.jittered += f.jitter_s != 0.0 ? 1 : 0;
    t.reordered += f.swap_with_next ? 1 : 0;
  }
  return t;
}

std::uint64_t FaultPlan::schedule_digest(std::size_t n) {
  ensure(n);
  Fnv fnv;
  for (std::size_t i = 0; i < n; ++i) {
    const FrameFault& f = frames_[i];
    fnv.value(f.drop);
    fnv.value(f.truncate);
    fnv.value(f.keep_fraction);
    fnv.value(f.ghost_points);
    fnv.value(f.jitter_s);
    fnv.value(f.swap_with_next);
    fnv.value(f.point_seed);
  }
  return fnv.h;
}

// ---------------------------------------------------------------- injector

FaultInjector::FaultInjector(FaultConfig config)
    : plan_(config), enabled_(config.enabled()) {}

FrameCloud FaultInjector::corrupt(const FrameCloud& frame, const FrameFault& fault) {
  FrameCloud out = frame;
  if (fault.truncate) {
    const auto keep = static_cast<std::size_t>(std::ceil(
        static_cast<double>(out.points.size()) * fault.keep_fraction));
    if (keep < out.points.size()) {
      counts_.points_removed += out.points.size() - keep;
      out.points.resize(keep);
    }
    ++counts_.frames_truncated;
    GP_COUNTER_ADD("gp.faults.frames_truncated", 1);
  }
  if (fault.ghost_points > 0) {
    Rng ghost_rng(fault.point_seed, 0xD15EA5EDULL);
    out.points.reserve(out.points.size() + fault.ghost_points);
    for (std::uint32_t g = 0; g < fault.ghost_points; ++g) {
      RadarPoint p;
      p.position.x = ghost_rng.uniform(-1.5, 1.5);
      p.position.y = ghost_rng.uniform(0.3, 4.0);
      p.position.z = ghost_rng.uniform(-0.5, 1.5);
      p.velocity = ghost_rng.uniform(-2.0, 2.0);
      p.snr_db = ghost_rng.uniform(5.0, 25.0);
      p.frame = out.frame_index;
      out.points.push_back(p);
    }
    counts_.ghost_points += fault.ghost_points;
    GP_COUNTER_ADD("gp.faults.ghost_points", fault.ghost_points);
  }
  if (fault.jitter_s != 0.0) {
    out.timestamp += fault.jitter_s;
    ++counts_.frames_jittered;
    GP_COUNTER_ADD("gp.faults.frames_jittered", 1);
  }
  return out;
}

std::optional<FrameCloud> FaultInjector::apply(const FrameCloud& frame) {
  if (!enabled_) return frame;  // zero-overhead off path: one branch, no plan
  ++counts_.frames_seen;
  const FrameFault& fault =
      plan_.at(static_cast<std::size_t>(std::max(0, frame.frame_index)));
  if (fault.drop) {
    ++counts_.frames_dropped;
    GP_COUNTER_ADD("gp.faults.frames_dropped", 1);
    return std::nullopt;
  }
  return corrupt(frame, fault);
}

FrameSequence FaultInjector::apply_sequence(const FrameSequence& frames) {
  if (!enabled_) return frames;
  FrameSequence out;
  out.reserve(frames.size());
  for (const FrameCloud& frame : frames) {
    if (auto survived = apply(frame)) out.push_back(std::move(*survived));
  }
  // Reordering pass over the *delivered* stream: a swap flagged on a
  // delivered frame exchanges it with its delivered successor. Flags are
  // resolved against the pre-swap order and the partner is skipped, so each
  // flag yields at most one adjacent transposition (no bubbling cascades).
  std::vector<char> swap_here(out.size(), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const FrameFault& fault =
        plan_.at(static_cast<std::size_t>(std::max(0, out[i].frame_index)));
    swap_here[i] = fault.swap_with_next ? 1 : 0;
  }
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (swap_here[i]) {
      std::swap(out[i], out[i + 1]);
      ++counts_.frames_reordered;
      GP_COUNTER_ADD("gp.faults.frames_reordered", 1);
      ++i;  // the swapped-forward partner keeps its original position's fate
    }
  }
  return out;
}

// -------------------------------------------------- radar sensor decorator

FaultyRadarSensor::FaultyRadarSensor(RadarSensor inner, FaultConfig faults)
    : inner_(std::move(inner)), injector_(faults) {}

FrameSequence FaultyRadarSensor::observe(const SceneSequence& scene, Rng& rng) {
  return injector_.apply_sequence(inner_.observe(scene, rng));
}

std::optional<FrameCloud> FaultyRadarSensor::observe_frame(const SceneFrame& frame,
                                                           Rng& rng) {
  return injector_.apply(inner_.observe_frame(frame, rng));
}

// ------------------------------------------------- artifact bit corruption

void flip_bits(std::string& blob, std::size_t flips, std::uint64_t seed,
               std::size_t offset) {
  if (blob.size() <= offset) return;
  Rng rng(seed, 0xB17F11B5ULL);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t pos = offset + rng.index(blob.size() - offset);
    const auto bit = static_cast<unsigned char>(1u << rng.index(8));
    blob[pos] = static_cast<char>(static_cast<unsigned char>(blob[pos]) ^ bit);
  }
}

}  // namespace gp::faults
