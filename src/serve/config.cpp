#include "serve/config.hpp"

#include <cstdlib>

#include "common/logging.hpp"

namespace gp::serve {

namespace {

/// Parses a positive integer env var; warns and keeps `fallback` on junk.
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

}  // namespace

ServeConfig ServeConfig::from_env() { return from_env(ServeConfig{}); }

ServeConfig ServeConfig::from_env(ServeConfig base) {
  base.shards = static_cast<std::size_t>(env_u64("GP_SERVE_SHARDS", base.shards, 1));
  base.batch_max = static_cast<std::size_t>(env_u64("GP_SERVE_BATCH_MAX", base.batch_max, 1));
  base.batch_wait_us = env_u64("GP_SERVE_BATCH_WAIT_US", base.batch_wait_us, 0);
  base.queue_cap = static_cast<std::size_t>(env_u64("GP_SERVE_QUEUE_CAP", base.queue_cap, 1));
  if (auto faults = faults::FaultConfig::from_env()) base.session_faults = *faults;
  base.health = health::HealthConfig::from_env(base.health);
  base.quant = nn::quant_mode_from_env(base.quant);
  base.enroll.enabled = env_u64("GP_ENROLL", base.enroll.enabled ? 1 : 0, 0) != 0;
  base.enroll.k_segments =
      static_cast<std::size_t>(env_u64("GP_ENROLL_K", base.enroll.k_segments, 1));
  base.enroll.max_candidates = static_cast<std::size_t>(
      env_u64("GP_ENROLL_MAX_CANDIDATES", base.enroll.max_candidates, 1));
  return base;
}

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kAccepted: return "accepted";
    case Admission::kRejectedQueueFull: return "rejected_queue_full";
    case Admission::kRejectedNoWorker: return "rejected_no_worker";
  }
  return "?";
}

}  // namespace gp::serve
