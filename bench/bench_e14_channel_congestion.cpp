// Experiment E14 (extension) — V2X channel congestion and the DCC soft-DoS
// (paper §5: communication patterns govern the security/performance/
// bandwidth trade-off; §4.1 availability attacks).
//
// A fleet of honest vehicles shares the channel with an attacker occupying
// a swept fraction of airtime. DCC-compliant vehicles back off their beacon
// rate as CBR rises: the attack "succeeds" without touching cryptography by
// degrading everyone's situational-awareness rate. We report the honest
// beacon rate, effective CBR, and the awareness latency (time between
// position updates a neighbor sees) per attacker occupancy.

#include <cstdio>

#include "bench_util.hpp"
#include "v2x/dcc.hpp"

using namespace aseck;
using namespace aseck::v2x;

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E14: V2X channel congestion / DCC soft-DoS\n");
  std::printf("(20 honest vehicles, 500 us per beacon, 10 s per point)\n\n");

  benchutil::Table table({"attacker_occupancy_%", "steady_cbr", "dcc_state",
                          "honest_beacon_hz", "awareness_latency_ms",
                          "fleet_beacons_10s"});

  const int fleet = 20;
  const util::SimTime beacon_air = util::SimTime::from_us(500);

  for (const double attacker : {0.0, 0.10, 0.25, 0.40, 0.60}) {
    // Iterate the closed loop: fleet rate -> CBR -> DCC -> fleet rate.
    DccController dcc;
    CbrEstimator est;
    util::SimTime now = util::SimTime::zero();
    double cbr = 0;
    std::uint64_t fleet_beacons = 0;
    // Simulate 10 s in 100 ms steps.
    for (int step = 0; step < 100; ++step) {
      const util::SimTime interval = dcc.beacon_interval();
      const double per_vehicle_hz = 1e9 / static_cast<double>(interval.ns);
      const double beacons_this_step = per_vehicle_hz * 0.1 * fleet;
      fleet_beacons += static_cast<std::uint64_t>(beacons_this_step);
      // Channel busy time this 100 ms: honest beacons + attacker share.
      const double busy_us =
          beacons_this_step * 500.0 + attacker * 100000.0;
      est.on_air(now, util::SimTime::from_us(static_cast<std::uint64_t>(
                          std::min(busy_us, 100000.0))));
      now += util::SimTime::from_ms(100);
      cbr = est.cbr(now);
      dcc.update(cbr, now);
    }
    const double honest_hz = 1e9 / static_cast<double>(dcc.beacon_interval().ns);
    table.add_row({benchutil::fmt("%.0f", attacker * 100),
                   benchutil::fmt("%.2f", cbr),
                   dcc_state_name(dcc.state()),
                   benchutil::fmt("%.1f", honest_hz),
                   benchutil::fmt("%.0f", 1000.0 / honest_hz),
                   benchutil::fmt_u(fleet_beacons)});
  }
  table.print();
  std::printf(
      "\nReading: without an attacker the 20-vehicle fleet stabilizes in a\n"
      "low DCC state at 10 Hz. As attacker occupancy grows, DCC-honest\n"
      "vehicles back off to 1 Hz — position updates age 10x — while the\n"
      "attacker never forges a single message: availability is the paper's\n"
      "third attack model, and congestion control is its unguarded flank.\n"
      "(%.0f us of beacon airtime assumed; signature size directly scales\n"
      "this, linking back to E1/E2 overhead choices.)\n",
      static_cast<double>(beacon_air.ns) / 1000.0);
  return 0;
}
