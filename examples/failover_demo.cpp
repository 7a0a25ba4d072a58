// Failover walk-through: a hot-standby gateway pair carries brake traffic
// between two CAN domains while a watchdog supervisor listens for its
// heartbeats. We crash the active unit, watch the alive supervision expire,
// let the supervisor's reset handler promote the standby, and finish with
// the repaired unit rejoining — then replay the same crash without the
// supervisor to show the outage nobody notices until the frames stop.

#include <cstdio>
#include <string>

#include "gateway/redundant.hpp"
#include "ivn/can.hpp"
#include "safety/supervisor.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

using namespace aseck;
using sim::Scheduler;
using sim::SimTime;
using util::Bytes;

namespace {

struct Counter final : ivn::CanNode {
  using ivn::CanNode::CanNode;
  void on_frame(const ivn::CanFrame&, SimTime at) override {
    ++rx;
    last = at;
  }
  std::uint64_t rx = 0;
  SimTime last;
};

struct Rig {
  Scheduler sched;
  sim::Telemetry t;
  ivn::CanBus body{sched, "can.body", 500'000, 0, t};
  ivn::CanBus chassis{sched, "can.chassis", 500'000, 0, t};
  gateway::RedundantGateway rgw{
      sched, "gw", gateway::SecurityGateway::kDefaultProcessingDelay, t};
  Counter sender{"brake-pedal"};
  Counter receiver{"brake-actuator"};

  Rig() {
    rgw.add_domain("body", &body);
    rgw.add_domain("chassis", &chassis);
    rgw.add_route(0x100, "body", "chassis", /*safety_critical=*/true);
    rgw.start_sync(SimTime::from_ms(20));
    body.attach(&sender);
    chassis.attach(&receiver);
  }

  void send_brake() {
    ivn::CanFrame f;
    f.id = 0x100;
    f.data = Bytes{0xBB, 0x01};
    body.send(&sender, f);
  }
};

}  // namespace

int main() {
  std::printf("=== redundant gateway failover demo ===\n\n");

  // ---- act 1: supervised crash -> detect -> failover -> rejoin -------------
  Rig rig;
  safety::HealthSupervisor sup(rig.sched, "demo", rig.t);

  safety::AliveSupervision alive;
  alive.period = SimTime::from_ms(10);  // reference cycle
  alive.expected = 10;                  // 1 ms heartbeats
  alive.min_margin = 2;
  alive.max_margin = 2;
  safety::EscalationPolicy esc;
  esc.failed_tolerance = 1;  // one bad cycle tolerated, second expires
  sup.supervise_alive("gw.active", alive, esc);
  sup.set_reset_handler("gw.active", [&](const std::string&) {
    std::printf("[%6.1f ms] watchdog reset handler -> promoting standby\n",
                rig.sched.now().ms());
    return rig.rgw.failover();
  });
  safety::HeartbeatEmitter hb(rig.sched, sup, "gw.active", SimTime::from_ms(1),
                              [&] { return !rig.rgw.active().offline(); });
  sup.start();
  hb.start();

  sim::PeriodicTask traffic(rig.sched, SimTime::from_ms(2),
                            [&] { rig.send_brake(); }, SimTime::from_ms(2));

  rig.sched.schedule_at(SimTime::from_ms(50), [&] {
    std::printf("[%6.1f ms] CRASH: active gateway unit '%s' goes dark\n",
                rig.sched.now().ms(), rig.rgw.active().trace().component().c_str());
    rig.rgw.set_active_down(true);
  });
  rig.sched.schedule_at(SimTime::from_ms(120), [&] {
    std::printf("[%6.1f ms] repaired unit reboots and rejoins as standby\n",
                rig.sched.now().ms());
    rig.rgw.set_active_down(false);
  });

  rig.sched.run_until(SimTime::from_ms(200));
  traffic.stop();
  hb.stop();
  sup.stop();

  std::printf("\nsupervised outcome:\n");
  std::printf("  failovers            : %llu\n",
              static_cast<unsigned long long>(rig.rgw.failovers()));
  std::printf("  detection latency    : %.1f ms\n",
              rig.rgw.last_detection_latency().ms());
  std::printf("  frames lost in gap   : %llu\n",
              static_cast<unsigned long long>(rig.rgw.last_failover_frames_lost()));
  std::printf("  brake frames delivered: %llu / 99 sent\n",
              static_cast<unsigned long long>(rig.receiver.rx));
  std::printf("  active unit now      : %s\n",
              rig.rgw.active().trace().component().c_str());

  // ---- act 2: the same crash, nobody watching ------------------------------
  std::printf("\n=== same crash, supervisor disabled ===\n\n");
  Rig dark;
  sim::PeriodicTask traffic2(dark.sched, SimTime::from_ms(2),
                             [&] { dark.send_brake(); }, SimTime::from_ms(2));
  dark.sched.schedule_at(SimTime::from_ms(50), [&] {
    std::printf("[%6.1f ms] CRASH: active gateway unit goes dark\n",
                dark.sched.now().ms());
    dark.rgw.set_active_down(true);
  });
  dark.sched.run_until(SimTime::from_ms(200));
  traffic2.stop();

  std::printf("\nunsupervised outcome:\n");
  std::printf("  failovers            : %llu (nobody pulled the trigger)\n",
              static_cast<unsigned long long>(dark.rgw.failovers()));
  std::printf("  brake frames delivered: %llu / 99 sent\n",
              static_cast<unsigned long long>(dark.receiver.rx));
  std::printf("  last frame seen at   : %.1f ms — silence ever since\n",
              dark.receiver.last.ms());
  return 0;
}
