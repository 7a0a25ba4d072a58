// Tests for the V2X decentralized congestion control.

#include <gtest/gtest.h>

#include "v2x/dcc.hpp"

namespace aseck::v2x {
namespace {

using util::SimTime;

TEST(Dcc, EscalatesImmediately) {
  DccController dcc;
  EXPECT_EQ(dcc.state(), DccState::kRelaxed);
  EXPECT_EQ(dcc.update(0.45, SimTime::from_ms(100)), DccState::kActive2);
  EXPECT_EQ(dcc.update(0.80, SimTime::from_ms(200)), DccState::kRestrictive);
  EXPECT_EQ(dcc.beacon_interval(), SimTime::from_ms(1000));
}

TEST(Dcc, RampsDownOneStateAtATimeWithDwell) {
  DccController dcc;
  dcc.update(0.9, SimTime::from_ms(0));  // -> restrictive
  // CBR falls, but the first low sample only arms the dwell timer.
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(100)), DccState::kRestrictive);
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(500)), DccState::kRestrictive);
  // After the 1 s dwell: one step down per dwell period, not a jump.
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(1200)), DccState::kActive2);
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(1500)), DccState::kActive2);
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(2300)), DccState::kActive1);
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(3400)), DccState::kRelaxed);
  EXPECT_EQ(dcc.beacon_interval(), SimTime::from_ms(100));
}

TEST(Dcc, ReboundCancelsRampDown) {
  DccController dcc;
  dcc.update(0.9, SimTime::from_ms(0));
  dcc.update(0.1, SimTime::from_ms(100));  // arm ramp-down
  dcc.update(0.9, SimTime::from_ms(200));  // congestion returns
  // Dwell restarts at t=300; no step-down before t=1300.
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(300)), DccState::kRestrictive);
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(1200)), DccState::kRestrictive);
  EXPECT_EQ(dcc.update(0.1, SimTime::from_ms(1400)), DccState::kActive2);
}

TEST(Dcc, BeaconIntervalsMonotone) {
  DccController dcc;
  SimTime last = SimTime::zero();
  for (double cbr : {0.1, 0.35, 0.45, 0.9}) {
    DccController fresh;
    fresh.update(cbr, SimTime::from_ms(1));
    EXPECT_GE(fresh.beacon_interval().ns, last.ns);
    last = fresh.beacon_interval();
  }
}

TEST(Dcc, FloodingAttackForcesFleetBackoff) {
  // Security interaction: an attacker occupying 60% of the channel pushes
  // every honest vehicle to 1 Hz beacons — a 10x situational-awareness loss
  // without breaking any cryptography.
  DccController honest;
  CbrEstimator est;
  SimTime t = SimTime::zero();
  // Attacker transmits 600 us of every 1 ms.
  for (int i = 0; i < 300; ++i) {
    est.on_air(t, SimTime::from_us(600));
    t = t + SimTime::from_ms(1);
    honest.update(est.cbr(t), t);
  }
  EXPECT_EQ(honest.state(), DccState::kRestrictive);
  EXPECT_EQ(honest.beacon_interval(), SimTime::from_ms(1000));
}

TEST(Cbr, WindowedMeasurement) {
  CbrEstimator est;
  // 30 ms of airtime in the first 100 ms window.
  est.on_air(SimTime::from_ms(10), SimTime::from_ms(10));
  est.on_air(SimTime::from_ms(50), SimTime::from_ms(20));
  EXPECT_NEAR(est.cbr(SimTime::from_ms(100)), 0.30, 1e-9);
  // Quiet second window.
  EXPECT_NEAR(est.cbr(SimTime::from_ms(200)), 0.0, 1e-9);
  // Saturation clamps to 1.
  est.on_air(SimTime::from_ms(210), SimTime::from_ms(500));
  EXPECT_DOUBLE_EQ(est.cbr(SimTime::from_ms(320)), 1.0);
}

}  // namespace
}  // namespace aseck::v2x
