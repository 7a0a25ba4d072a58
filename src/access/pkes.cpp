#include "access/pkes.hpp"

namespace aseck::access {

namespace {
constexpr double kLfRangeM = 2.0;  // challenge reach
constexpr double kSpeedOfLightMPerUs = 299.8;
}  // namespace

KeyFob::KeyFob(const crypto::Block& key, double process_us)
    : cmac_(util::BytesView(key.data(), key.size())), process_us_(process_us) {}

crypto::Block KeyFob::respond(const crypto::Block& challenge) const {
  return cmac_.tag(util::BytesView(challenge.data(), challenge.size()));
}

PkesCar::PkesCar(const crypto::Block& key, std::uint64_t seed)
    : cmac_(util::BytesView(key.data(), key.size())), rng_(seed) {}

PkesCar::Attempt PkesCar::try_unlock(const KeyFob& fob, double fob_distance_m,
                                     const RelayAttacker& relay) {
  Attempt a;

  // Can the LF challenge reach the fob at all?
  double effective_distance = fob_distance_m;
  double extra_delay_us = 0;
  if (relay.active) {
    // The relay captures the LF field near the car and replays it near the
    // fob: range check is against the station distances instead.
    if (relay.station_to_car_m > kLfRangeM || relay.station_to_fob_m > kLfRangeM) {
      a.out_of_range = true;
      return a;
    }
    // Two relay hops (challenge out, response back) over the link.
    extra_delay_us = 2.0 * (relay.link_latency_us + relay.process_us) +
                     (relay.station_to_car_m + relay.station_to_fob_m) /
                         kSpeedOfLightMPerUs;
    effective_distance = relay.station_to_car_m;  // fob hears the station
  } else if (fob_distance_m > kLfRangeM) {
    a.out_of_range = true;
    return a;
  }

  // Challenge-response.
  crypto::Block challenge;
  for (auto& b : challenge) b = static_cast<std::uint8_t>(rng_.next_u64());
  const crypto::Block response = fob.respond(challenge);
  a.response_valid =
      util::ct_equal(util::BytesView(response.data(), 16),
                     util::BytesView(cmac_.tag(util::BytesView(challenge.data(), 16)).data(), 16));

  // Round-trip time: propagation both ways + fob processing + relay delays.
  const double prop_us = 2.0 * effective_distance / kSpeedOfLightMPerUs;
  a.rtt_us = prop_us + fob.processing_us() + extra_delay_us +
             rng_.gaussian(0.0, 0.5);  // measurement jitter

  if (rtt_limit_us_ > 0 && a.rtt_us > rtt_limit_us_) {
    a.rtt_rejected = true;
    a.unlocked = false;
    return a;
  }
  a.unlocked = a.response_valid;
  return a;
}

}  // namespace aseck::access
