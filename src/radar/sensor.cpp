#include "radar/sensor.hpp"

#include "radar/frontend.hpp"

namespace gp {

RadarSensor::RadarSensor(RadarConfig config, RadarBackend backend, FastBackendConfig fast_config)
    : config_(config), backend_(backend), fast_config_(fast_config) {
  config_.validate();
}

FrameCloud RadarSensor::observe_frame(const SceneFrame& frame, Rng& rng) const {
  if (backend_ == RadarBackend::kFullChain) return process_frame(config_, frame, rng);
  return fast_process_frame(config_, fast_config_, frame, rng);
}

FrameSequence RadarSensor::observe(const SceneSequence& scene, Rng& rng) const {
  if (backend_ == RadarBackend::kFullChain) return process_scene(config_, scene, rng);
  return fast_process_scene(config_, fast_config_, scene, rng);
}

}  // namespace gp
