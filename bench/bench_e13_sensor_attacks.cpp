// Experiment E13 (extension) — sensor attack resilience of the ADAS
// pipeline (paper §4.1: LIDAR spoofing [7], acoustic MEMS injection [13],
// TPMS spoofing [11]).
//
// 1000 AEB evaluation frames per scenario; we count phantom-braking events
// (availability attack success) and missed real threats, for a naive
// single-sensor consumer vs the corroboration-voting fusion.

#include <cstdio>

#include "adas/fusion.hpp"
#include "bench_util.hpp"

using namespace aseck;
using namespace aseck::adas;

namespace {

struct Outcome {
  int phantom_brakes = 0;   // braking with no real threat present
  int missed_threats = 0;   // no braking although a real threat existed
  std::uint64_t ghosts_rejected = 0;
};

Outcome run(bool fusion_voting, bool ghost_radar, bool ghost_lidar,
            bool blind_lidar, bool real_threat, std::uint64_t seed) {
  PerceptionSensor::Config rc;
  rc.kind = SensorKind::kRadar;
  PerceptionSensor::Config lc;
  lc.kind = SensorKind::kLidar;
  PerceptionSensor::Config cc;
  cc.kind = SensorKind::kCamera;
  PerceptionSensor radar(rc, seed);
  PerceptionSensor lidar(lc, seed + 1);
  PerceptionSensor camera(cc, seed + 2);
  SensorFusion::Config fcfg;
  fcfg.min_corroboration = fusion_voting ? 2 : 1;
  SensorFusion fusion(fcfg);
  fusion.add_sensor(&radar);
  fusion.add_sensor(&lidar);
  fusion.add_sensor(&camera);
  AebController aeb;

  if (ghost_radar) radar.inject_ghost(Detection{14.0, 0.0, 28.0, 1.0});
  if (ghost_lidar) lidar.inject_ghost(Detection{14.5, 0.0, 28.0, 1.0});
  if (blind_lidar) lidar.set_blinded(true);

  Outcome out;
  for (int frame = 0; frame < 1000; ++frame) {
    std::vector<TruthObject> truth;
    if (real_threat) truth.push_back({25.0, 0.0, 18.0});  // TTC 1.4 s
    const auto fused = fusion.fuse(truth);
    const auto decision = aeb.evaluate(fused.actionable);
    if (decision.brake && !real_threat) ++out.phantom_brakes;
    if (!decision.brake && real_threat) ++out.missed_threats;
  }
  out.ghosts_rejected = fusion.total_single_source_rejected();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E13: ADAS sensor-attack resilience (1000 AEB frames each)\n\n");
  benchutil::Table table({"scenario", "consumer", "phantom_brakes",
                          "missed_threats", "ghosts_outvoted"});

  struct Case {
    const char* name;
    bool ghost_radar, ghost_lidar, blind_lidar, real_threat;
  };
  const std::vector<Case> cases{
      {"benign, real threat", false, false, false, true},
      {"lidar ghost, no threat", false, true, false, false},
      {"coordinated radar+lidar ghost", true, true, false, false},
      {"lidar blinded, real threat", false, false, true, true},
  };
  std::uint64_t seed = 900;
  for (const auto& c : cases) {
    for (const bool voting : {false, true}) {
      const Outcome o = run(voting, c.ghost_radar, c.ghost_lidar, c.blind_lidar,
                            c.real_threat, seed);
      table.add_row({c.name, voting ? "fusion(2-of-3)" : "naive(any sensor)",
                     std::to_string(o.phantom_brakes),
                     std::to_string(o.missed_threats),
                     benchutil::fmt_u(o.ghosts_rejected)});
      seed += 10;
    }
  }
  table.print();

  // Acoustic MEMS attack detection latency.
  std::printf("\nAcoustic MEMS injection [13]: detection latency vs bias\n\n");
  benchutil::Table imu({"bias_mps2", "detected", "latency_samples"});
  for (const double bias : {0.5, 1.0, 2.0, 4.0}) {
    MemsAccelerometer sensor(0.05, 42);
    WheelSpeedSensor wheel(0.002, 43);
    ImuPlausibilityMonitor monitor;
    sensor.set_acoustic_attack(bias);
    int latency = -1;
    for (int i = 0; i < 200; ++i) {
      if (monitor.feed(sensor.sense(0.0), wheel.sense(20.0), 0.1)) {
        latency = i;
        break;
      }
    }
    imu.add_row({benchutil::fmt("%.1f", bias), latency >= 0 ? "yes" : "no",
                 latency >= 0 ? std::to_string(latency) : "-"});
  }
  imu.print();
  std::printf(
      "\nReading: single-sensor ghosts cause 100%% phantom braking on a naive\n"
      "consumer and 0%% against 2-of-3 fusion voting; coordinated multi-\n"
      "sensor spoofing defeats voting (residual risk — the paper's point\n"
      "that creative physical-domain attacks keep moving the bar). Blinding\n"
      "degrades but does not disable detection (2 sensors remain). MEMS bias\n"
      "above the residual threshold is caught within ~5 samples; sub-\n"
      "threshold bias persists silently — plausibility bounds, not absence\n"
      "of attack, are what the monitor guarantees.\n");
  return 0;
}
