#pragma once
// ADAS sensor models and their attack surfaces (paper §2 "Driver
// Assistance", §4.1 availability attacks on sensors: LIDAR spoofing [7],
// acoustic MEMS injection [13], TPMS spoofing [11], GPS spoofing [9,18]).
//
// Each sensor produces object detections or scalar channels with
// configurable noise; attack hooks inject ghost objects, bias, or resonance.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace aseck::adas {

using util::SimTime;

/// An object hypothesis in the vehicle frame (x forward, meters).
struct Detection {
  double range_m = 0;
  double bearing_rad = 0;
  double rel_speed_mps = 0;  // closing speed (positive = approaching)
  double confidence = 1.0;
};

/// A ground-truth object the scenario places in front of the vehicle.
struct TruthObject {
  double range_m;
  double bearing_rad;
  double rel_speed_mps;
};

enum class SensorKind { kRadar, kLidar, kCamera };
const char* sensor_kind_name(SensorKind k);

/// Ranging/perception sensor with noise and attack injection. Objects
/// beyond 150 m are not seen (kMaxRangeM in sensors.cpp).
class PerceptionSensor {
 public:
  struct Config {
    SensorKind kind = SensorKind::kRadar;
    double range_noise_m = 0.5;
    double dropout_prob = 0.02;
  };
  PerceptionSensor(Config cfg, std::uint64_t seed);

  /// Measures the true scene; attack-injected ghosts are appended and
  /// attack-suppressed objects removed.
  std::vector<Detection> sense(const std::vector<TruthObject>& truth);

  // --- attack hooks ----------------------------------------------------------
  /// LIDAR/radar spoofing: inject a ghost object every frame.
  void inject_ghost(std::optional<Detection> ghost) { ghost_ = ghost; }
  /// Saturation/blinding: all returns suppressed.
  void set_blinded(bool on) { blinded_ = on; }

 private:
  Config cfg_;
  util::Rng rng_;
  std::optional<Detection> ghost_;
  bool blinded_ = false;
};

/// MEMS inertial sensor with acoustic-resonance injection [13]: an attacker
/// playing the resonant frequency adds a controlled bias to the output.
class MemsAccelerometer {
 public:
  MemsAccelerometer(double noise_mps2, std::uint64_t seed);

  double sense(double true_accel_mps2);

  void set_acoustic_attack(double bias_mps2) { acoustic_bias_ = bias_mps2; }

 private:
  double noise_;
  util::Rng rng_;
  double acoustic_bias_ = 0;
};

/// Wheel-speed sensor (ground truth anchor; hard to spoof remotely).
class WheelSpeedSensor {
 public:
  WheelSpeedSensor(double noise_frac, std::uint64_t seed);
  double sense(double true_speed_mps);

 private:
  double noise_frac_;
  util::Rng rng_;
};

/// TPMS receiver: unauthenticated RF -> trivially spoofable [11].
class TpmsReceiver {
 public:
  explicit TpmsReceiver(double nominal_kpa = 240)
      : nominal_(nominal_kpa), reading_(nominal_kpa) {}
  double sense() const { return reading_; }
  /// A forged broadcast replaces the reading; nullopt restores the nominal.
  void spoof(std::optional<double> kpa) { reading_ = kpa.value_or(nominal_); }

 private:
  double nominal_;
  double reading_;
};

}  // namespace aseck::adas
