#pragma once
// Sensor fusion with cross-sensor plausibility voting, and the automated
// emergency braking (AEB) consumer — the "Sensor Fusion module that performs
// analytics" of paper §2, built so that the §4.1 sensor attacks can be run
// against it: a single spoofed sensor is outvoted; coordinated multi-sensor
// spoofing defeats voting (the residual risk).

#include <map>
#include <memory>
#include <vector>

#include "adas/sensors.hpp"

namespace aseck::adas {

/// A fused object track with the number of corroborating sensors.
struct FusedObject {
  double range_m = 0;
  double rel_speed_mps = 0;
  int corroboration = 0;  // sensors agreeing on this object
};

/// Fusion voting parameters.
struct FusionConfig {
  /// Minimum corroborating sensors for an *actionable* object.
  int min_corroboration = 2;
};

class SensorFusion {
 public:
  using Config = FusionConfig;
  explicit SensorFusion(Config cfg = {}) : cfg_(cfg) {}

  void add_sensor(PerceptionSensor* s) { sensors_.push_back(s); }

  struct FusionOutput {
    std::vector<FusedObject> objects;          // all tracks
    std::vector<FusedObject> actionable;       // corroboration >= min
    std::uint64_t single_source_rejected = 0;  // ghost candidates outvoted
  };
  FusionOutput fuse(const std::vector<TruthObject>& truth);

  std::uint64_t total_single_source_rejected() const { return rejected_total_; }

 private:
  Config cfg_;
  std::vector<PerceptionSensor*> sensors_;
  std::uint64_t rejected_total_ = 0;
};

/// Automated emergency braking: brakes when an actionable object's
/// time-to-collision drops below the threshold.
class AebController {
 public:
  struct Decision {
    bool brake = false;
    double ttc_s = 1e9;
  };
  Decision evaluate(const std::vector<FusedObject>& actionable) const;
};

/// Longitudinal plausibility monitor: cross-checks MEMS acceleration against
/// differentiated wheel speed; acoustic-injection bias shows up as a
/// persistent residual (the defense against [13]).
class ImuPlausibilityMonitor {
 public:
  /// Feeds one 10 Hz sample pair; returns true when an inconsistency alarm
  /// is active.
  bool feed(double imu_accel_mps2, double wheel_speed_mps, double dt_s);

 private:
  std::optional<double> last_speed_;
  int consecutive_ = 0;
  bool alarmed_ = false;
};

}  // namespace aseck::adas
