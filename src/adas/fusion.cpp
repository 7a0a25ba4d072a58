#include "adas/fusion.hpp"

#include <algorithm>
#include <cmath>

namespace aseck::adas {

namespace {
/// Detections within this range gate are considered the same object.
constexpr double kAssociationGateM = 5.0;
constexpr double kAebTtcThresholdS = 1.8;
constexpr double kAebMinRangeM = 1.0;
constexpr double kImuResidualThresholdMps2 = 1.5;
constexpr int kImuRequiredConsecutive = 5;
}  // namespace

SensorFusion::FusionOutput SensorFusion::fuse(
    const std::vector<TruthObject>& truth) {
  FusionOutput out;
  // Collect per-sensor detections.
  struct Tagged {
    Detection d;
    std::size_t sensor;
  };
  std::vector<Tagged> all;
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    for (const Detection& d : sensors_[s]->sense(truth)) {
      all.push_back({d, s});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Tagged& a, const Tagged& b) { return a.d.range_m < b.d.range_m; });

  // Greedy gating association: cluster detections within the range gate.
  std::vector<bool> used(all.size(), false);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (used[i]) continue;
    std::vector<const Tagged*> cluster{&all[i]};
    std::vector<bool> sensor_seen(sensors_.size(), false);
    sensor_seen[all[i].sensor] = true;
    used[i] = true;
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (used[j]) continue;
      if (std::abs(all[j].d.range_m - all[i].d.range_m) > kAssociationGateM) {
        break;  // sorted: nothing further can associate
      }
      if (sensor_seen[all[j].sensor]) continue;  // one det per sensor
      sensor_seen[all[j].sensor] = true;
      cluster.push_back(&all[j]);
      used[j] = true;
    }
    FusedObject obj;
    for (const Tagged* t : cluster) {
      obj.range_m += t->d.range_m;
      obj.rel_speed_mps += t->d.rel_speed_mps;
    }
    obj.range_m /= static_cast<double>(cluster.size());
    obj.rel_speed_mps /= static_cast<double>(cluster.size());
    obj.corroboration = static_cast<int>(cluster.size());
    out.objects.push_back(obj);
    if (obj.corroboration >= cfg_.min_corroboration) {
      out.actionable.push_back(obj);
    } else {
      ++out.single_source_rejected;
      ++rejected_total_;
    }
  }
  return out;
}

AebController::Decision AebController::evaluate(
    const std::vector<FusedObject>& actionable) const {
  Decision d;
  for (const FusedObject& o : actionable) {
    if (o.rel_speed_mps <= 0.1) continue;  // not closing
    if (o.range_m < kAebMinRangeM) continue;
    const double ttc = o.range_m / o.rel_speed_mps;
    if (ttc < d.ttc_s) d.ttc_s = ttc;
  }
  d.brake = d.ttc_s < kAebTtcThresholdS;
  return d;
}

bool ImuPlausibilityMonitor::feed(double imu_accel_mps2,
                                  double wheel_speed_mps, double dt_s) {
  if (last_speed_ && dt_s > 0) {
    const double wheel_accel = (wheel_speed_mps - *last_speed_) / dt_s;
    const double residual = std::abs(imu_accel_mps2 - wheel_accel);
    if (residual > kImuResidualThresholdMps2) {
      if (++consecutive_ >= kImuRequiredConsecutive) alarmed_ = true;
    } else {
      consecutive_ = 0;
    }
  }
  last_speed_ = wheel_speed_mps;
  return alarmed_;
}

}  // namespace aseck::adas
