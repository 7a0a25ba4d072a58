#include "adas/sensors.hpp"

#include <cmath>

namespace aseck::adas {

namespace {
constexpr double kMaxRangeM = 150;
}  // namespace

const char* sensor_kind_name(SensorKind k) {
  switch (k) {
    case SensorKind::kRadar: return "radar";
    case SensorKind::kLidar: return "lidar";
    case SensorKind::kCamera: return "camera";
  }
  return "?";
}

PerceptionSensor::PerceptionSensor(Config cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

std::vector<Detection> PerceptionSensor::sense(
    const std::vector<TruthObject>& truth) {
  std::vector<Detection> out;
  if (!blinded_) {
    for (const TruthObject& t : truth) {
      if (t.range_m > kMaxRangeM) continue;
      if (rng_.chance(cfg_.dropout_prob)) continue;
      Detection d;
      d.range_m = t.range_m + rng_.gaussian(0.0, cfg_.range_noise_m);
      d.bearing_rad = t.bearing_rad + rng_.gaussian(0.0, 0.005);
      d.rel_speed_mps = t.rel_speed_mps + rng_.gaussian(0.0, 0.2);
      d.confidence = 0.9 + rng_.uniform01() * 0.1;
      out.push_back(d);
    }
  }
  if (ghost_) out.push_back(*ghost_);
  return out;
}

MemsAccelerometer::MemsAccelerometer(double noise_mps2, std::uint64_t seed)
    : noise_(noise_mps2), rng_(seed) {}

double MemsAccelerometer::sense(double true_accel_mps2) {
  return true_accel_mps2 + acoustic_bias_ + rng_.gaussian(0.0, noise_);
}

WheelSpeedSensor::WheelSpeedSensor(double noise_frac, std::uint64_t seed)
    : noise_frac_(noise_frac), rng_(seed) {}

double WheelSpeedSensor::sense(double true_speed_mps) {
  return true_speed_mps * (1.0 + rng_.gaussian(0.0, noise_frac_));
}

}  // namespace aseck::adas
