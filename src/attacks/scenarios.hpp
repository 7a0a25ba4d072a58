#pragma once
// Composite attack scenarios from the paper:
//  * GPS spoofing (Section 4.1 availability attacks, refs [9,18]) with an
//    odometry cross-check defense.
//  * The Section 4.2 chain: side-channel key extraction from one vehicle ->
//    malicious OTA update attempt against the fleet, showing how shared
//    (non-diversified) keys turn one physical compromise into a fleet-wide
//    one, and how per-vehicle keys plus Uptane full verification contain it.

#include <cstdint>
#include <vector>

#include "ota/client.hpp"
#include "sidechannel/power_model.hpp"
#include "util/rng.hpp"

namespace aseck::attacks {

// --- GPS spoofing -----------------------------------------------------------

/// GPS receiver model with an optional spoofer that slowly drags the
/// position fix away from the true trajectory (a "carry-off" attack).
class GpsSpoofScenario {
 public:
  explicit GpsSpoofScenario(std::uint64_t seed) : rng_(seed) {}

  struct Step {
    double t_s;
    double gps_error_m;      // distance between GPS fix and truth
    bool spoof_active;
    bool detected;           // odometry cross-check flags inconsistency
  };
  /// Runs `seconds` of 1 Hz fixes; spoofing starts at `spoof_start_s`.
  std::vector<Step> run(double seconds, double spoof_start_s);

  /// Time from spoof start to first detection, or -1 if never detected.
  static double detection_latency_s(const std::vector<Step>& steps,
                                    double spoof_start_s);

 private:
  util::Rng rng_;
};

// --- Side-channel -> fleet OTA compromise ------------------------------------

/// Outcome of the chained scenario for one fleet configuration.
struct FleetCompromiseResult {
  bool key_extracted = false;         // CPA succeeded on the physical vehicle
  std::size_t traces_used = 0;
  std::size_t vehicles_compromised = 0;  // accepted the malicious update
  std::size_t fleet_size = 0;
};

struct FleetConfig {
  std::size_t fleet_size = 20;
  bool shared_symmetric_keys = true;   // same OTA auth key in every vehicle
  bool masking_countermeasure = false; // side-channel protection on the ECU
  std::size_t max_traces = 3000;
};

/// Simulates: attacker with physical access captures power traces from one
/// vehicle's update-auth AES key; if recovered, forges update authorizations
/// against every vehicle in the fleet. With `shared_symmetric_keys` the
/// whole class falls; with per-vehicle keys only the probed vehicle does.
FleetCompromiseResult run_fleet_compromise(const FleetConfig& cfg,
                                           std::uint64_t seed);

}  // namespace aseck::attacks
