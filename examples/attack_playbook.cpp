// Attack playbook: runs the paper's Section 4 attack catalogue against the
// same vehicle twice — baseline (no defenses) and hardened (SecOC, gateway
// rate limiting + quarantine, IDS, distance bounding, masking) — and prints
// a scorecard.

#include <cstdio>
#include <string>
#include <vector>

#include "access/pkes.hpp"
#include "adas/fusion.hpp"
#include "attacks/can_attacks.hpp"
#include "attacks/scenarios.hpp"
#include "ecu/ecu.hpp"
#include "gateway/gateway.hpp"
#include "ids/detectors.hpp"
#include "ivn/uds.hpp"

using namespace aseck;
using util::Bytes;

namespace {

struct ScoreRow {
  std::string attack;
  std::string baseline;
  std::string hardened;
};

crypto::Block key_of(std::uint8_t b) {
  crypto::Block k;
  k.fill(b);
  return k;
}

/// CAN injection against an actuator command stream.
ScoreRow play_injection() {
  auto run = [](bool hardened) {
    sim::Scheduler sched;
    ivn::CanBus bus(sched, "chassis", 500000);
    ecu::Ecu sensor(sched, "sensor", 1), actuator(sched, "actuator", 2);
    sensor.provision(ecu::FirmwareImage{"s", 1, Bytes(64, 1)}, key_of(1),
                     key_of(2), key_of(3));
    actuator.provision(ecu::FirmwareImage{"a", 1, Bytes(64, 1)}, key_of(1),
                       key_of(2), key_of(3));
    sensor.attach_to(&bus);
    actuator.attach_to(&bus);
    sensor.boot();
    actuator.boot();
    const ivn::SecOcChannel ch(Bytes(16, 0x03));
    int malicious_accepted = 0;
    actuator.subscribe(0x0F0, [&](const ivn::CanFrame& f, sim::SimTime) {
      if (!hardened) {
        if (f.data[0] == 0x66) ++malicious_accepted;
      } else {
        const auto res = actuator.verify_secured(ch, 0x0F0, f.data);
        if (res.status == ivn::SecOcStatus::kOk && res.payload[0] == 0x66) {
          ++malicious_accepted;
        }
      }
    });
    attacks::InjectionAttacker atk(sched, bus, "attacker", 0x0F0,
                                   sim::SimTime::from_ms(10),
                                   [](std::uint64_t) { return Bytes(8, 0x66); });
    atk.start();
    sched.run_until(sim::SimTime::from_ms(200));
    atk.stop();
    sched.run();
    return malicious_accepted;
  };
  const int base = run(false), hard = run(true);
  return {"CAN command injection",
          std::to_string(base) + " forged commands executed",
          std::to_string(hard) + " accepted (SecOC)"};
}

/// Replay of a previously captured unlock command.
ScoreRow play_replay() {
  auto run = [](bool hardened) {
    sim::Scheduler sched;
    ivn::CanBus bus(sched, "body", 500000);
    ecu::Ecu sender(sched, "bcm", 1), door(sched, "door", 2);
    sender.provision(ecu::FirmwareImage{"b", 1, Bytes(64, 1)}, key_of(1),
                     key_of(2), key_of(3));
    door.provision(ecu::FirmwareImage{"d", 1, Bytes(64, 1)}, key_of(1),
                   key_of(2), key_of(3));
    sender.attach_to(&bus);
    door.attach_to(&bus);
    sender.boot();
    door.boot();
    const ivn::SecOcChannel ch(Bytes(16, 0x03));
    int unlocks = 0;
    door.subscribe(0x2A0, [&](const ivn::CanFrame& f, sim::SimTime) {
      if (!hardened) {
        ++unlocks;
      } else if (door.verify_secured(ch, 0x2A0, f.data).status ==
                 ivn::SecOcStatus::kOk) {
        ++unlocks;
      }
    });
    attacks::ReplayAttacker atk(sched, bus, "replayer",
                                sim::SimTime::from_ms(30),
                                sim::SimTime::from_ms(10));
    atk.start();
    sched.schedule_at(sim::SimTime::from_ms(10), [&] {
      if (hardened) {
        sender.send_secured(ch, 0x2A0, 0x2A0, Bytes{0x01});
      } else {
        sender.send_frame(0x2A0, Bytes{0x01});
      }
    });
    sched.run_until(sim::SimTime::from_ms(300));
    atk.stop();
    sched.run();
    return unlocks - 1;  // minus the legitimate one
  };
  const int base = run(false), hard = run(true);
  return {"unlock replay", std::to_string(base) + " replayed unlocks",
          std::to_string(hard) + " accepted (freshness)"};
}

/// External flood through the gateway.
ScoreRow play_flood() {
  auto run = [](bool hardened) {
    sim::Scheduler sched;
    ivn::CanBus external(sched, "obd", 500000), internal(sched, "chassis", 500000);
    gateway::SecurityGateway gw(sched, "cgw");
    gw.add_domain("obd", &external);
    gw.add_domain("chassis", &internal);
    gw.add_route(0x001, "obd", "chassis");
    if (hardened) {
      gw.set_domain_rate_limit("obd", gateway::RateLimit{20.0, 5.0});
    }
    ecu::Ecu chassis_ecu(sched, "chassis-ecu", 1);
    chassis_ecu.provision(ecu::FirmwareImage{"c", 1, Bytes(64, 1)}, key_of(1),
                          key_of(2), key_of(3));
    chassis_ecu.attach_to(&internal);
    chassis_ecu.boot();
    attacks::FloodAttacker atk(sched, external, "flooder", 0x001);
    atk.start();
    sched.run_until(sim::SimTime::from_ms(500));
    atk.stop();
    sched.run();
    return internal.stats().bus_load(sched.now());
  };
  const double base = run(false), hard = run(true);
  char b[64], h[64];
  std::snprintf(b, sizeof b, "%.0f%% internal bus load", base * 100);
  std::snprintf(h, sizeof h, "%.1f%% (rate-limited)", hard * 100);
  return {"external DoS flood", b, h};
}

/// PKES relay theft.
ScoreRow play_relay() {
  access::PkesCar base_car(key_of(0x77), 1);
  access::PkesCar hard_car(key_of(0x77), 1);
  hard_car.set_rtt_limit(310.0);
  access::KeyFob fob(key_of(0x77));
  access::RelayAttacker relay;
  relay.active = true;
  const auto base_attempt = base_car.try_unlock(fob, 40.0, relay);
  const auto hard_attempt = hard_car.try_unlock(fob, 40.0, relay);
  return {"PKES relay theft",
          base_attempt.unlocked ? "car UNLOCKED" : "blocked",
          hard_attempt.unlocked ? "car UNLOCKED"
                                : "blocked (distance bounding)"};
}

/// Side-channel key extraction -> fleet compromise.
ScoreRow play_sidechannel() {
  attacks::FleetConfig base_cfg;
  base_cfg.fleet_size = 10;
  base_cfg.shared_symmetric_keys = true;
  attacks::FleetConfig hard_cfg = base_cfg;
  hard_cfg.masking_countermeasure = true;
  hard_cfg.shared_symmetric_keys = false;
  const auto base = attacks::run_fleet_compromise(base_cfg, 7);
  const auto hard = attacks::run_fleet_compromise(hard_cfg, 7);
  return {"side-channel -> fleet OTA",
          std::to_string(base.vehicles_compromised) + "/10 vehicles compromised",
          std::to_string(hard.vehicles_compromised) +
              "/10 (masking + unique keys)"};
}

/// GPS spoofing.
ScoreRow play_gps() {
  attacks::GpsSpoofScenario scenario(11);
  const auto steps = scenario.run(120.0, 30.0);
  const double latency =
      attacks::GpsSpoofScenario::detection_latency_s(steps, 30.0);
  char h[64];
  std::snprintf(h, sizeof h, "detected after %.0f s (odometry x-check)", latency);
  char b[64];
  std::snprintf(b, sizeof b, "%.0f m position error, undetected",
                steps.back().gps_error_m);
  return {"GPS carry-off spoofing", b, h};
}

/// UDS SecurityAccess brute force: weak XOR algorithm + no lockout vs
/// CMAC algorithm + 3-attempt lockout.
ScoreRow play_uds() {
  util::Rng rng(19);
  // Baseline: leaked-constant-family XOR, effectively unlimited attempts.
  ivn::UdsServer::Config weak_cfg;
  weak_cfg.seed_key = ivn::weak_xor_algorithm(0x000000AA);  // 8-bit constant
  weak_cfg.max_attempts = 1u << 30;
  weak_cfg.lockout_s = 0;
  ivn::UdsServer weak(weak_cfg, 3);
  weak.session_control(ivn::UdsSession::kExtended, 0);
  int tries = 0;
  bool cracked = false;
  for (std::uint32_t c = 0; c < 256 && !cracked; ++c) {
    const auto seed = weak.request_seed(c);
    ++tries;
    cracked = weak.send_key(ivn::weak_xor_algorithm(c)(seed.data), c + 0.5)
                  .positive;
  }
  // Hardened: CMAC seed/key + lockout.
  ivn::UdsServer::Config strong_cfg;
  strong_cfg.seed_key = ivn::cmac_algorithm(util::Bytes(16, 0x9C));
  ivn::UdsServer strong(strong_cfg, 4);
  const auto attack = ivn::brute_force_security_access(strong, 100000, 0, rng);
  return {"UDS SecurityAccess brute force",
          cracked ? "unlocked after " + std::to_string(tries) + " tries"
                  : "survived",
          attack.unlocked ? "unlocked (bug)"
                          : "locked out after " +
                                std::to_string(attack.attempts) + " tries"};
}

/// LIDAR ghost-object phantom braking.
ScoreRow play_lidar_ghost() {
  auto run = [](bool fusion_voting) {
    adas::PerceptionSensor::Config rc, lc;
    rc.kind = adas::SensorKind::kRadar;
    lc.kind = adas::SensorKind::kLidar;
    adas::PerceptionSensor radar(rc, 1), lidar(lc, 2);
    adas::SensorFusion::Config fcfg;
    fcfg.min_corroboration = fusion_voting ? 2 : 1;
    adas::SensorFusion fusion(fcfg);
    fusion.add_sensor(&radar);
    fusion.add_sensor(&lidar);
    adas::AebController aeb;
    lidar.inject_ghost(adas::Detection{12.0, 0.0, 28.0, 1.0});
    int phantom = 0;
    for (int i = 0; i < 100; ++i) {
      if (aeb.evaluate(fusion.fuse({}).actionable).brake) ++phantom;
    }
    return phantom;
  };
  const int base = run(false), hard = run(true);
  return {"LIDAR ghost ($60 spoofer)",
          std::to_string(base) + "/100 phantom-brake frames",
          std::to_string(hard) + "/100 (2-of-3 fusion voting)"};
}

}  // namespace

int main() {
  std::printf("=== attack playbook: baseline vs hardened ===\n\n");
  const std::vector<ScoreRow> rows = {
      play_injection(), play_replay(),      play_flood(),
      play_relay(),     play_sidechannel(), play_gps(),
      play_uds(),       play_lidar_ghost(),
  };
  std::printf("%-28s | %-36s | %s\n", "attack", "baseline vehicle",
              "hardened vehicle");
  std::printf("%s\n", std::string(110, '-').c_str());
  for (const auto& r : rows) {
    std::printf("%-28s | %-36s | %s\n", r.attack.c_str(), r.baseline.c_str(),
                r.hardened.c_str());
  }
  return 0;
}
