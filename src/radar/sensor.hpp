// RadarSensor: the facade the rest of the system talks to. It hides which
// backend turns reflector scenes into point-cloud frames.
#pragma once

#include "common/rng.hpp"
#include "kinematics/performer.hpp"
#include "pointcloud/point.hpp"
#include "radar/config.hpp"
#include "radar/fast_backend.hpp"

namespace gp {

enum class RadarBackend {
  kFullChain,  ///< FMCW synthesis + FFT/CFAR chain (bit-accurate, slow)
  kGeometric,  ///< calibrated geometric model (fast, statistically matched)
};

class RadarSensor {
 public:
  explicit RadarSensor(RadarConfig config = {}, RadarBackend backend = RadarBackend::kGeometric,
                       FastBackendConfig fast_config = {});

  /// Observes one gesture performance, producing per-frame point clouds.
  FrameSequence observe(const SceneSequence& scene, Rng& rng) const;

  /// Observes a single frame.
  FrameCloud observe_frame(const SceneFrame& frame, Rng& rng) const;

  const RadarConfig& config() const { return config_; }
  RadarBackend backend() const { return backend_; }

 private:
  RadarConfig config_;
  RadarBackend backend_;
  FastBackendConfig fast_config_;
};

}  // namespace gp
