#include "radar/fast_backend.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/math_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radar/fmcw.hpp"

namespace gp {

namespace {

struct BinKey {
  int range_bin;
  int vel_bin;
  int az_bin;
  int el_bin;
  bool operator==(const BinKey&) const = default;
};

struct BinKeyHash {
  std::size_t operator()(const BinKey& k) const {
    std::size_t h = static_cast<std::size_t>(k.range_bin);
    h = h * 1000003u + static_cast<std::size_t>(k.vel_bin + 512);
    h = h * 1000003u + static_cast<std::size_t>(k.az_bin + 512);
    h = h * 1000003u + static_cast<std::size_t>(k.el_bin + 512);
    return h;
  }
};

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

FrameCloud fast_process_frame(const RadarConfig& radar, const FastBackendConfig& config,
                              const SceneFrame& scene, Rng& rng) {
  GP_SPAN("radar.fast_backend");
  GP_COUNTER_ADD("gp.radar.frames_fast", 1);
  radar.validate();
  FrameCloud frame;
  frame.frame_index = scene.frame_index;
  frame.timestamp = scene.timestamp;

  const double v_res = radar.velocity_resolution();
  const double sin_grid = 2.0 / static_cast<double>(radar.angle_fft_size);
  const int max_vel_bin = static_cast<int>(radar.num_chirps) / 2;

  // Strongest detection per resolution cell.
  std::unordered_map<BinKey, RadarPoint, BinKeyHash> cells;

  const auto try_detect = [&](const TargetEcho& echo, double snr_penalty_db) {
    if (echo.range < 0.1 || echo.range >= radar.max_range()) return;

    const double snr_db = config.snr_ref_db + 10.0 * std::log10(std::max(echo.rcs, 1e-6)) -
                          config.range_falloff * 20.0 *
                              std::log10(std::max(echo.range, 0.1) / config.ref_range) -
                          snr_penalty_db + rng.gaussian(0.0, config.snr_sigma);
    if (!rng.bernoulli(sigmoid((snr_db - config.p50_db) / config.slope_db))) return;

    // Velocity bin; bin 0 is removed by static clutter removal. A slowly
    // moving target (|v| < v_res/2) is not simply lost, though: the Doppler
    // window leaks a fraction of its energy into the adjacent bins, so it
    // survives clutter removal with probability ~ |v|/v_res at reduced SNR
    // — matching the full chain's windowed-FFT behaviour.
    int vel_bin = static_cast<int>(std::lround(echo.radial_velocity / v_res));
    double effective_snr = snr_db;
    if (radar.static_clutter_removal && vel_bin == 0) {
      const double frac = std::abs(echo.radial_velocity) / v_res;  // in [0, 0.5]
      if (!rng.bernoulli(frac)) return;
      vel_bin = echo.radial_velocity >= 0.0 ? 1 : -1;
      effective_snr -= 6.0;  // leakage loss
    }
    const int clamped_vel = std::clamp(vel_bin, -max_vel_bin, max_vel_bin - 1);

    // Range bin with sub-bin jitter.
    const double rj = echo.range + rng.gaussian(0.0, config.range_sigma);
    const int range_bin = std::clamp(
        static_cast<int>(rj / radar.range_resolution), 0,
        static_cast<int>(radar.num_range_bins()) - 1);

    // Angle measurement: noise then FFT-grid quantisation.
    const double sin_el_meas = std::clamp(
        std::sin(echo.elevation) + rng.gaussian(0.0, config.sin_el_sigma), -1.0, 1.0);
    const int el_bin = static_cast<int>(std::lround(sin_el_meas / sin_grid));
    const double sin_el_q = std::clamp(el_bin * sin_grid, -1.0, 1.0);
    const double cos_el = std::max(std::sqrt(1.0 - sin_el_q * sin_el_q), 0.2);

    const double spatial_az = std::sin(echo.azimuth) * std::cos(echo.elevation) +
                              rng.gaussian(0.0, config.sin_az_sigma);
    const int az_bin = static_cast<int>(std::lround(std::clamp(spatial_az, -1.0, 1.0) / sin_grid));
    const double sin_az = std::clamp(az_bin * sin_grid / cos_el, -1.0, 1.0);

    RadarPoint point;
    const double range_q = (static_cast<double>(range_bin) + 0.5) * radar.range_resolution;
    const double azimuth = std::asin(sin_az);
    const double elevation = std::asin(sin_el_q);
    point.position = Vec3(range_q * std::sin(azimuth) * std::cos(elevation),
                          range_q * std::cos(azimuth) * std::cos(elevation),
                          range_q * std::sin(elevation));
    point.velocity = clamped_vel * v_res;
    point.snr_db = effective_snr;
    point.frame = scene.frame_index;

    const BinKey key{range_bin, clamped_vel, az_bin, el_bin};
    auto [it, inserted] = cells.try_emplace(key, point);
    if (!inserted && point.snr_db > it->second.snr_db) it->second = point;
  };

  for (const auto& reflector : scene.reflectors) {
    const TargetEcho echo = reflector_to_echo(reflector);
    try_detect(echo, 0.0);

    // Multipath ghost: a delayed copy at extended range, weaker.
    if (rng.bernoulli(config.ghost_prob)) {
      TargetEcho ghost = echo;
      ghost.range += rng.uniform(0.5, 2.0);
      ghost.azimuth += rng.gaussian(0.0, 0.2);
      try_detect(ghost, rng.uniform(10.0, 20.0));
    }
  }

  // Residual environment clutter (moving reflectors the clutter filter
  // cannot remove: swaying cables, drifting chairs, fan blades...).
  int clutter_count = 0;
  double p = rng.uniform();
  double threshold = std::exp(-config.clutter_rate);
  while (p > threshold && clutter_count < 8) {  // inverse-CDF Poisson draw
    ++clutter_count;
    p *= rng.uniform();
  }
  for (int i = 0; i < clutter_count; ++i) {
    TargetEcho clutter;
    clutter.range = rng.uniform(0.4, radar.max_range() * 0.95);
    clutter.azimuth = rng.uniform(-1.0, 1.0);
    clutter.elevation = rng.uniform(-0.5, 0.5);
    clutter.rcs = rng.uniform(0.05, 0.5);
    Reflector fake;
    fake.position = Vec3(clutter.range * std::sin(clutter.azimuth) * std::cos(clutter.elevation),
                         clutter.range * std::cos(clutter.azimuth) * std::cos(clutter.elevation),
                         clutter.range * std::sin(clutter.elevation));
    const double v = (rng.bernoulli(0.5) ? 1.0 : -1.0) * rng.uniform(v_res, 3.0 * v_res);
    fake.velocity = fake.position.normalized() * v;
    fake.rcs = clutter.rcs;
    try_detect(reflector_to_echo(fake), 0.0);
  }

  frame.points.reserve(cells.size());
  for (auto& [key, point] : cells) frame.points.push_back(point);
  return frame;
}

FrameSequence fast_process_scene(const RadarConfig& radar, const FastBackendConfig& config,
                                 const SceneSequence& scene, Rng& rng) {
  // Persistent clutter sites: fixed positions for the whole scene, emitting
  // intermittently with small oscillating Doppler.
  struct ClutterSite {
    Vec3 position;
    double rcs;
    double doppler_amp;
    double phase;
  };
  std::vector<ClutterSite> sites;
  {
    const double sites_mean =
        config.site_emission_prob > 0.0
            ? 0.7 * config.clutter_rate / config.site_emission_prob
            : 0.0;
    // Inverse-CDF Poisson draw for the site count.
    int count = 0;
    double p = rng.uniform();
    double threshold = std::exp(-sites_mean);
    while (sites_mean > 0.0 && p > threshold && count < 10) {
      ++count;
      p *= rng.uniform();
    }
    const double v_res = radar.velocity_resolution();
    for (int i = 0; i < count; ++i) {
      const double range = rng.uniform(0.8, radar.max_range() * 0.9);
      const double az = rng.uniform(-1.0, 1.0);
      const double el = rng.uniform(-0.4, 0.4);
      ClutterSite site;
      site.position = Vec3(range * std::sin(az) * std::cos(el),
                           range * std::cos(az) * std::cos(el), range * std::sin(el));
      site.rcs = rng.uniform(0.08, 0.5);
      site.doppler_amp = rng.uniform(v_res, 3.0 * v_res);
      site.phase = rng.uniform(0.0, 2.0 * 3.14159265358979);
      sites.push_back(site);
    }
  }

  FastBackendConfig frame_config = config;
  frame_config.clutter_rate = 0.3 * config.clutter_rate;  // transient remainder

  FrameSequence out;
  out.reserve(scene.size());
  for (const auto& frame : scene) {
    SceneFrame augmented = frame;
    for (const auto& site : sites) {
      if (!rng.bernoulli(config.site_emission_prob)) continue;
      Reflector r;
      r.position = site.position;
      const double v = site.doppler_amp *
                       std::sin(site.phase + 2.0 * 3.14159265358979 * 0.8 * frame.timestamp);
      r.velocity = site.position.normalized() * v;
      r.rcs = site.rcs;
      augmented.reflectors.push_back(r);
    }
    out.push_back(fast_process_frame(radar, frame_config, augmented, rng));
  }
  return out;
}

}  // namespace gp
