// Fast geometric point-cloud backend.
//
// The full FMCW chain costs ~milliseconds per frame; dataset-scale sweeps
// (tens of thousands of gesture samples) need something cheaper. This
// backend skips waveform synthesis and directly maps each reflector to the
// detection the full chain would produce:
//   * range / velocity / angle quantised to the same bin grids,
//   * zero-Doppler detections discarded (static clutter removal),
//   * SNR-dependent detection probability with range falloff,
//   * per-bin deduplication (a radar cannot resolve within one cell),
//   * multipath ghost points and residual clutter injected at calibrated
//     rates.
// tests/test_oracles.cpp (BackendOracle) asserts its per-gesture cloud
// statistics agree with the full chain within physical tolerance bands
// (src/testkit/oracle.hpp: default_backend_bands()).
#pragma once

#include "common/rng.hpp"
#include "kinematics/performer.hpp"
#include "pointcloud/point.hpp"
#include "radar/config.hpp"

namespace gp {

struct FastBackendConfig {
  /// SNR in dB of a unit-RCS reflector at the reference range.
  double snr_ref_db = 22.0;
  double ref_range = 1.2;
  /// dB falloff per 20*log10(range/ref): 2.0 = radar-equation R^-4 power in
  /// dB terms halved by CFAR integration gain; 1.5 matches the paper's
  /// observed usable-but-degraded behaviour at 4.8 m.
  double range_falloff = 1.5;
  /// Logistic detection curve: P(detect) = sigmoid((snr - p50_db)/slope_db).
  double p50_db = 6.0;
  double slope_db = 3.0;
  /// Measurement noise on the spatial-frequency axes before binning.
  double sin_az_sigma = 0.010;
  double sin_el_sigma = 0.025;
  double range_sigma = 0.01;   ///< m, sub-bin beat-frequency jitter
  double snr_sigma = 1.5;      ///< dB
  /// Ghost (multipath) probability per detected point. Ghost ranges extend
  /// 0.5–2 m beyond the true target (wall-bounce path geometry).
  double ghost_prob = 0.02;
  /// Expected residual clutter points per frame (Poisson). In
  /// fast_process_scene roughly 70% of this budget is emitted by a few
  /// *persistent* clutter sites (fans, swaying fixtures) fixed for the whole
  /// scene — matching how residual clutter behaves in real rooms — and the
  /// rest stays transient. A direct fast_process_frame call emits the whole
  /// budget as transient clutter.
  double clutter_rate = 0.35;
  /// Per-frame emission probability of one persistent clutter site.
  double site_emission_prob = 0.5;
};

/// Produces the detections for one scene frame.
FrameCloud fast_process_frame(const RadarConfig& radar, const FastBackendConfig& config,
                              const SceneFrame& scene, Rng& rng);

/// Processes a whole gesture performance.
FrameSequence fast_process_scene(const RadarConfig& radar, const FastBackendConfig& config,
                                 const SceneSequence& scene, Rng& rng);

}  // namespace gp
