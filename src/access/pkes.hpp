#pragma once
// Passive Keyless Entry and Start (PKES) with the relay attack of
// Francillon et al. (NDSS 2011), and the distance-bounding countermeasure.
//
// Physics model: the LF challenge reaches ~2 m; the fob answers over UHF.
// The car measures the challenge->response round-trip time. A relay pair
// extends the LF range but cannot beat the speed of light: every relayed
// exchange adds processing + propagation delay, which a tight RTT bound
// detects. The attack's success is purely a function of the RTT budget —
// exactly what experiment E8 sweeps.

#include <cstdint>
#include <optional>

#include "crypto/cmac.hpp"
#include "util/rng.hpp"

namespace aseck::access {

/// Key fob with an AES-CMAC challenge-response credential.
class KeyFob {
 public:
  KeyFob(const crypto::Block& key, double process_us = 300.0);

  /// Computes the response tag for a challenge.
  crypto::Block respond(const crypto::Block& challenge) const;
  double processing_us() const { return process_us_; }

 private:
  crypto::Cmac cmac_;
  double process_us_;
};

/// Relay attacker: one station near the car, one near the fob, connected by
/// a link with `link_latency_us` one-way (cable, RF, or IP).
struct RelayAttacker {
  bool active = false;
  double station_to_car_m = 0.5;
  double station_to_fob_m = 0.5;
  double link_latency_us = 20.0;
  double process_us = 5.0;  // per-station amplification/retransmit cost
};

/// Vehicle-side PKES unit.
class PkesCar {
 public:
  PkesCar(const crypto::Block& key, std::uint64_t seed);

  struct Attempt {
    bool unlocked = false;
    bool response_valid = false;
    double rtt_us = 0;
    bool rtt_rejected = false;
    bool out_of_range = false;
  };

  /// Tries to unlock with the fob at `fob_distance_m` from the car,
  /// optionally through a relay.
  Attempt try_unlock(const KeyFob& fob, double fob_distance_m,
                     const RelayAttacker& relay = {});

  /// Round-trip bound in microseconds; 0 = no distance bounding.
  void set_rtt_limit(double us) { rtt_limit_us_ = us; }
  double rtt_limit_us() const { return rtt_limit_us_; }

 private:
  crypto::Cmac cmac_;
  double rtt_limit_us_ = 0;
  util::Rng rng_;
};

}  // namespace aseck::access
