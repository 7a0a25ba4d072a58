#include "attacks/scenarios.hpp"

#include <cmath>

#include "crypto/cmac.hpp"

namespace aseck::attacks {

namespace {
constexpr double kTrueSpeedMps = 25.0;   // along +x
constexpr double kDragRateMps = 3.0;     // spoofer-induced drift, along +y
constexpr double kGpsNoiseM = 2.0;
constexpr double kOdomNoiseFrac = 0.01;  // wheel odometry relative error
constexpr double kDetectThresholdM = 25.0;
}  // namespace

std::vector<GpsSpoofScenario::Step> GpsSpoofScenario::run(double seconds,
                                                          double spoof_start_s) {
  std::vector<Step> out;
  double spoof_offset = 0.0;
  // Dead-reckoned position from wheel odometry + heading (IMU): the car
  // knows it is driving straight along +x at ~true_speed.
  double dr_x = 0.0;
  for (double t = 0.0; t < seconds; t += 1.0) {
    const bool spoofing = t >= spoof_start_s;
    if (spoofing) spoof_offset += kDragRateMps;

    const double true_x = kTrueSpeedMps * t;
    const double gps_x = true_x + rng_.gaussian(0.0, kGpsNoiseM);
    const double gps_y = spoof_offset + rng_.gaussian(0.0, kGpsNoiseM);

    if (t > 0.0) {
      dr_x += kTrueSpeedMps * (1.0 + rng_.gaussian(0.0, kOdomNoiseFrac));
    }

    Step s;
    s.t_s = t;
    s.spoof_active = spoofing;
    const double ex = gps_x - true_x;
    s.gps_error_m = std::sqrt(ex * ex + gps_y * gps_y);
    // Defense: GPS fix vs dead-reckoned position disagreement.
    const double dx = gps_x - dr_x, dy = gps_y - 0.0;
    s.detected = std::sqrt(dx * dx + dy * dy) > kDetectThresholdM;
    out.push_back(s);
  }
  return out;
}

double GpsSpoofScenario::detection_latency_s(const std::vector<Step>& steps,
                                             double spoof_start_s) {
  for (const Step& s : steps) {
    if (s.t_s >= spoof_start_s && s.detected) return s.t_s - spoof_start_s;
  }
  return -1.0;
}

FleetCompromiseResult run_fleet_compromise(const FleetConfig& cfg,
                                           std::uint64_t seed) {
  FleetCompromiseResult result;
  result.fleet_size = cfg.fleet_size;
  util::Rng rng(seed);
  crypto::Drbg key_rng(seed ^ 0xF1EE7ULL);

  // Provision fleet OTA-auth keys (AES-CMAC authorization tokens).
  std::vector<crypto::Block> vehicle_keys(cfg.fleet_size);
  crypto::Block shared;
  key_rng.generate(shared.data(), shared.size());
  for (std::size_t i = 0; i < cfg.fleet_size; ++i) {
    if (cfg.shared_symmetric_keys) {
      vehicle_keys[i] = shared;
    } else {
      key_rng.generate(vehicle_keys[i].data(), vehicle_keys[i].size());
    }
  }

  // Phase 1: CPA against vehicle 0's key.
  sidechannel::LeakageConfig leak;
  leak.noise_sigma = 1.0;
  leak.countermeasure = cfg.masking_countermeasure
                            ? sidechannel::Countermeasure::kMasking
                            : sidechannel::Countermeasure::kNone;
  sidechannel::LeakyAesDevice device(vehicle_keys[0], leak, seed ^ 0xDEAD);
  std::vector<sidechannel::Trace> traces;
  crypto::Block extracted{};
  while (traces.size() < cfg.max_traces) {
    for (int i = 0; i < 200 && traces.size() < cfg.max_traces; ++i) {
      traces.push_back(device.capture(rng));
    }
    const auto cpa = sidechannel::cpa_attack(traces);
    if (cpa.correct_bytes(vehicle_keys[0]) == 16) {
      result.key_extracted = true;
      result.traces_used = traces.size();
      extracted = cpa.recovered_key;
      break;
    }
  }
  if (!result.key_extracted) return result;

  // Phase 2: forge an update authorization against every vehicle.
  const util::Bytes malicious = util::from_string("malicious-fw-v99");
  const crypto::Cmac attacker_mac(util::BytesView(extracted.data(), 16));
  const crypto::Block forged_tag = attacker_mac.tag(malicious);
  for (std::size_t i = 0; i < cfg.fleet_size; ++i) {
    const crypto::Cmac vehicle_mac(util::BytesView(vehicle_keys[i].data(), 16));
    if (vehicle_mac.verify(malicious,
                           util::BytesView(forged_tag.data(), 16))) {
      ++result.vehicles_compromised;
    }
  }
  return result;
}

}  // namespace aseck::attacks
