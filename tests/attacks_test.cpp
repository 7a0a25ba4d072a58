// Tests for the attack harness: CAN attackers, GPS spoofing, and the
// side-channel -> fleet OTA compromise chain.

#include <gtest/gtest.h>

#include "attacks/can_attacks.hpp"
#include "attacks/scenarios.hpp"
#include "ecu/ecu.hpp"
#include "ivn/secoc.hpp"

namespace aseck::attacks {
namespace {

using util::Bytes;

struct BusFixture {
  sim::Scheduler sched;
  ivn::CanBus bus{sched, "can0", 500000};
  ecu::Ecu victim{sched, "victim", 1};
  ecu::Ecu consumer{sched, "consumer", 2};

  BusFixture() {
    crypto::Block k{};
    victim.provision(ecu::FirmwareImage{"v", 1, Bytes(16, 1)}, k, k, k);
    consumer.provision(ecu::FirmwareImage{"c", 1, Bytes(16, 1)}, k, k, k);
    victim.attach_to(&bus);
    consumer.attach_to(&bus);
    victim.boot();
    consumer.boot();
  }
};

TEST(Injection, SpoofedFramesReachConsumer) {
  BusFixture f;
  int received = 0;
  f.consumer.subscribe(0x0B0, [&](const ivn::CanFrame& fr, sim::SimTime) {
    ++received;
    EXPECT_EQ(fr.data[0], 0xEE);
  });
  InjectionAttacker atk(f.sched, f.bus, "attacker", 0x0B0,
                        sim::SimTime::from_ms(10),
                        [](std::uint64_t) { return Bytes(8, 0xEE); });
  atk.start();
  f.sched.run_until(sim::SimTime::from_ms(95));
  atk.stop();
  f.sched.run();
  EXPECT_EQ(atk.injected(), 10u);
  EXPECT_EQ(received, 10);
}

TEST(Injection, SecOcBlocksSpoofedFrames) {
  // Same attack against a SecOC-protected stream: consumer rejects all
  // spoofed frames (attacker has no key).
  BusFixture f;
  const ivn::SecOcChannel ch(Bytes(16, 0x42));
  int accepted = 0, rejected = 0;
  f.consumer.subscribe(0x0B0, [&](const ivn::CanFrame& fr, sim::SimTime) {
    if (f.consumer.verify_secured(ch, 0x0B0, fr.data).status ==
        ivn::SecOcStatus::kOk) {
      ++accepted;
    } else {
      ++rejected;
    }
  });
  InjectionAttacker atk(f.sched, f.bus, "attacker", 0x0B0,
                        sim::SimTime::from_ms(10),
                        [](std::uint64_t) { return Bytes(8, 0xEE); });
  atk.start();
  f.sched.run_until(sim::SimTime::from_ms(50));
  atk.stop();
  // Legitimate secured frame still accepted.
  f.victim.send_secured(ch, 0x0B0, 0x0B0, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(accepted, 1);
  EXPECT_GE(rejected, 5);
}

TEST(Flood, StarvesLowPriorityTraffic) {
  BusFixture f;
  int received = 0;
  f.consumer.subscribe(0x400, [&](const ivn::CanFrame&, sim::SimTime) {
    ++received;
  });
  FloodAttacker atk(f.sched, f.bus, "flooder");
  atk.start();
  // Victim tries to send while the flood runs.
  for (int i = 0; i < 20; ++i) {
    f.sched.schedule_at(sim::SimTime::from_ms(static_cast<std::uint64_t>(i)),
                        [&] { f.victim.send_frame(0x400, Bytes{1}); });
  }
  f.sched.run_until(sim::SimTime::from_ms(30));
  atk.stop();
  f.sched.run();
  // The flood (id 0) wins every arbitration; victim frames drain only after
  // the attacker stops.
  EXPECT_GT(atk.sent(), 50u);
  const double bus_load = f.bus.stats().bus_load(f.sched.now());
  EXPECT_GT(bus_load, 0.9);
  EXPECT_LE(received, 20);
}

TEST(Replay, RecordsAndReplays) {
  BusFixture f;
  ReplayAttacker atk(f.sched, f.bus, "replayer", sim::SimTime::from_ms(50),
                     sim::SimTime::from_ms(5));
  atk.start();
  // Victim emits frames during the recording window.
  for (int i = 0; i < 5; ++i) {
    f.sched.schedule_at(sim::SimTime::from_ms(static_cast<std::uint64_t>(i) * 10),
                        [&] { f.victim.send_frame(0x123, Bytes{0xAB}); });
  }
  int consumer_rx = 0;
  f.consumer.subscribe(0x123, [&](const ivn::CanFrame&, sim::SimTime) {
    ++consumer_rx;
  });
  f.sched.run_until(sim::SimTime::from_ms(200));
  atk.stop();
  f.sched.run();
  EXPECT_EQ(atk.recorded(), 5u);
  EXPECT_GT(atk.replayed(), 10u);
  EXPECT_GT(consumer_rx, 10);  // consumer saw originals + replays
}

TEST(Replay, SecOcFreshnessBlocksReplays) {
  BusFixture f;
  const ivn::SecOcChannel ch(Bytes(16, 0x42));
  int accepted = 0, replay_rejected = 0;
  f.consumer.subscribe(0x123, [&](const ivn::CanFrame& fr, sim::SimTime) {
    const auto res = f.consumer.verify_secured(ch, 0x123, fr.data);
    if (res.status == ivn::SecOcStatus::kOk) {
      ++accepted;
    } else {
      ++replay_rejected;
    }
  });
  ReplayAttacker atk(f.sched, f.bus, "replayer", sim::SimTime::from_ms(50),
                     sim::SimTime::from_ms(5));
  atk.start();
  for (int i = 0; i < 5; ++i) {
    f.sched.schedule_at(sim::SimTime::from_ms(static_cast<std::uint64_t>(i) * 10),
                        [&] { f.victim.send_secured(ch, 0x123, 0x123, Bytes{0xAB}); });
  }
  f.sched.run_until(sim::SimTime::from_ms(200));
  atk.stop();
  f.sched.run();
  EXPECT_EQ(accepted, 5);        // only the 5 originals
  EXPECT_GT(replay_rejected, 10);  // every replay rejected
}

TEST(Fuzz, SendsRandomFrames) {
  BusFixture f;
  FuzzAttacker atk(f.sched, f.bus, "fuzzer", sim::SimTime::from_ms(1), 33);
  atk.start();
  f.sched.run_until(sim::SimTime::from_ms(100));
  atk.stop();
  f.sched.run();
  EXPECT_GT(atk.sent(), 90u);
  EXPECT_GT(f.consumer.frames_received(), 50u);
}

TEST(BusOff, DisconnectsVictim) {
  BusFixture f;
  BusOffAttacker atk(f.bus, "victim", 0x100);
  atk.arm();
  // Victim keeps transmitting; every attempt is corrupted; TEC escalates.
  f.victim.send_frame(0x100, Bytes{1});
  f.sched.run();
  EXPECT_EQ(f.victim.ivn::CanNode::state(), ivn::CanNodeState::kBusOff);
  EXPECT_GE(atk.corruptions(), 32u);  // 32 * 8 = 256 > 255
  // Victim can no longer send.
  EXPECT_FALSE(f.bus.send(&f.victim, ivn::CanFrame{0x100, false, false,
                                                   ivn::CanFormat::kClassic,
                                                   false, Bytes{1}}));
  atk.disarm();
  f.bus.recover(&f.victim);
  EXPECT_TRUE(f.victim.send_frame(0x100, Bytes{1}));
  f.sched.run();
}

TEST(BusOff, OnlyTargetsVictimId) {
  BusFixture f;
  BusOffAttacker atk(f.bus, "victim", 0x100);
  atk.arm();
  f.victim.send_frame(0x200, Bytes{1});  // different id: untouched
  f.sched.run();
  EXPECT_EQ(f.victim.ivn::CanNode::state(), ivn::CanNodeState::kErrorActive);
  EXPECT_EQ(atk.corruptions(), 0u);
}

TEST(GpsSpoof, DriftDetectedByOdometryCrossCheck) {
  GpsSpoofScenario scenario(5);
  const auto steps = scenario.run(120.0, 30.0);
  ASSERT_EQ(steps.size(), 120u);
  // Before the spoof: no detection, small error.
  for (std::size_t i = 0; i < 29; ++i) {
    EXPECT_FALSE(steps[i].detected) << i;
    EXPECT_LT(steps[i].gps_error_m, 15.0);
  }
  // Spoof drags the fix away; detection fires within a bounded delay.
  const double latency = GpsSpoofScenario::detection_latency_s(steps, 30.0);
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 60.0);
  EXPECT_GT(steps.back().gps_error_m, 100.0);
}

TEST(GpsSpoof, NoSpoofNoDetection) {
  GpsSpoofScenario scenario(6);
  const auto steps = scenario.run(100.0, 1e9);  // never spoof
  int false_alarms = 0;
  for (const auto& s : steps) {
    if (s.detected) ++false_alarms;
  }
  EXPECT_LE(false_alarms, 2);
}

TEST(FleetCompromise, SharedKeysCompromiseWholeFleet) {
  FleetConfig cfg;
  cfg.fleet_size = 10;
  cfg.shared_symmetric_keys = true;
  cfg.masking_countermeasure = false;
  const auto r = run_fleet_compromise(cfg, 101);
  ASSERT_TRUE(r.key_extracted);
  EXPECT_EQ(r.vehicles_compromised, 10u);  // the paper's fleet-wide scenario
  EXPECT_GT(r.traces_used, 0u);
}

TEST(FleetCompromise, PerVehicleKeysContainBreach) {
  FleetConfig cfg;
  cfg.fleet_size = 10;
  cfg.shared_symmetric_keys = false;
  const auto r = run_fleet_compromise(cfg, 102);
  ASSERT_TRUE(r.key_extracted);
  EXPECT_EQ(r.vehicles_compromised, 1u);  // only the probed vehicle
}

TEST(FleetCompromise, MaskingStopsExtraction) {
  FleetConfig cfg;
  cfg.fleet_size = 10;
  cfg.masking_countermeasure = true;
  cfg.max_traces = 2000;
  const auto r = run_fleet_compromise(cfg, 103);
  EXPECT_FALSE(r.key_extracted);
  EXPECT_EQ(r.vehicles_compromised, 0u);
}

}  // namespace
}  // namespace aseck::attacks
