// Tests for the health-supervision & redundant-failover stack:
// safety::HealthSupervisor (WdgM-style alive/deadline/logical supervision +
// escalation ladder), safety::HeartbeatEmitter, the hot-standby
// gateway::RedundantGateway, and the 2oo2 adas::DualChannelVoter. The
// acceptance bar is the ordered chain
//   fault inject -> missed heartbeats -> entity_expired -> failover/reset_ok
// on one shared TraceBus, with detection latency and switchover downtime
// (frames lost) measured, and zero unrecovered faults once the supervisor
// has driven recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adas/redundancy.hpp"
#include "gateway/redundant.hpp"
#include "ivn/can.hpp"
#include "safety/supervisor.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

namespace aseck {
namespace {

using safety::AliveSupervision;
using safety::DeadlineSupervision;
using safety::EntityStatus;
using safety::EscalationLevel;
using safety::EscalationPolicy;
using safety::HealthSupervisor;
using safety::HeartbeatEmitter;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using sim::SimTime;
using sim::Telemetry;
using util::Bytes;

std::uint64_t seq_of(const Telemetry& t, std::string_view component,
                     std::string_view kind) {
  const sim::TraceEvent* e = t.bus->find_first(component, kind);
  return e ? e->seq : 0;
}

// ---------------------------------------------------------------------------
// Alive supervision

TEST(Supervisor, HealthyHeartbeatsStayOk) {
  Scheduler sched;
  HealthSupervisor sup(sched, "sup");
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 10;
  cfg.min_margin = 2;
  cfg.max_margin = 2;
  sup.supervise_alive("ecu.brake", cfg);
  HeartbeatEmitter hb(sched, sup, "ecu.brake", SimTime::from_ms(1));
  hb.start();
  sup.start();
  sched.run_until(SimTime::from_ms(100));
  EXPECT_EQ(sup.status("ecu.brake"), EntityStatus::kOk);
  EXPECT_EQ(sup.escalation("ecu.brake"), EscalationLevel::kNone);
  EXPECT_EQ(sup.expirations(), 0u);
  EXPECT_GE(sup.cycles(), 9u);
  EXPECT_GE(sup.heartbeats(), 90u);
  EXPECT_EQ(hb.suppressed(), 0u);
}

// Regression: a supervisor used to start on a private plane and move onto
// the shared one later, and gauges did not move with it, so an entity
// registered before the move had no status gauge on the shared registry.
// Built on the plane, the gauge is there from registration on.
TEST(Supervisor, StatusGaugeLandsOnTheSharedPlane) {
  Scheduler sched;
  Telemetry t;
  HealthSupervisor sup(sched, "sup", t);
  sup.supervise_alive("ecu", AliveSupervision{});
  const sim::Gauge* g = t.metrics->find_gauge("supervisor.sup.status.ecu");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value(), static_cast<double>(EntityStatus::kOk));
}

TEST(Supervisor, MissedHeartbeatsFailThenExpire) {
  Scheduler sched;
  Telemetry t;
  HealthSupervisor sup(sched, "sup", t);
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 2;  // a 5 ms producer beats twice per 10 ms window
  cfg.min_margin = 1;
  cfg.max_margin = 1;
  EscalationPolicy esc;
  esc.failed_tolerance = 1;  // one FAILED cycle tolerated, expire on the 2nd
  sup.supervise_alive("ecu.brake", cfg, esc);

  std::vector<EntityStatus> transitions;
  sup.set_status_handler([&](const std::string&, EntityStatus s) {
    transitions.push_back(s);
  });

  // Beats for the first 35 ms, then silence.
  sim::PeriodicTask beats(
      sched, SimTime::from_ms(5),
      [&] {
        if (sched.now() <= SimTime::from_ms(35)) sup.alive("ecu.brake");
      },
      SimTime::from_ms(5));
  sup.start();
  sched.run_until(SimTime::from_ms(55));
  EXPECT_EQ(sup.status("ecu.brake"), EntityStatus::kFailed);
  sched.run_until(SimTime::from_ms(100));
  beats.stop();
  EXPECT_EQ(sup.status("ecu.brake"), EntityStatus::kExpired);
  EXPECT_EQ(sup.expired_count(), 1u);
  EXPECT_EQ(sup.expirations(), 1u);
  // Cycle at 50ms fails (last beat 35ms), cycle at 60ms expires. Detection
  // latency runs from the last good beat to the expiry decision: 25 ms.
  EXPECT_EQ(sup.expired_at("ecu.brake"), SimTime::from_ms(60));
  EXPECT_EQ(sup.detection_latency("ecu.brake"), SimTime::from_ms(25));
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_EQ(transitions[transitions.size() - 2], EntityStatus::kFailed);
  EXPECT_EQ(transitions.back(), EntityStatus::kExpired);

  const std::uint64_t failed = seq_of(t, "supervisor.sup", "entity_failed");
  const std::uint64_t expired = seq_of(t, "supervisor.sup", "entity_expired");
  ASSERT_NE(failed, 0u);
  ASSERT_NE(expired, 0u);
  EXPECT_LT(failed, expired);
  EXPECT_EQ(t.metrics->counter_value("supervisor.sup.expirations"), 1u);
}

TEST(Supervisor, MarginsTolerateJitterButNotFloods) {
  Scheduler sched;
  HealthSupervisor sup(sched, "sup");
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 10;
  cfg.min_margin = 2;
  cfg.max_margin = 2;
  EscalationPolicy esc;
  esc.failed_tolerance = 0;  // expire on the first bad cycle
  sup.supervise_alive("ecu.adas", cfg, esc);
  sup.start();
  // 8 beats per cycle = expected - 2: inside the margin.
  sim::PeriodicTask ok_beats(
      sched, SimTime::from_ms(10),
      [&] {
        for (int i = 0; i < 8; ++i) sup.alive("ecu.adas");
      },
      SimTime::from_ms(1));
  sched.run_until(SimTime::from_ms(50));
  ok_beats.stop();
  EXPECT_EQ(sup.status("ecu.adas"), EntityStatus::kOk);
  // A babbling component (beyond expected + max_margin) is just as dead.
  sched.schedule_after(SimTime::from_ms(1), [&] {
    for (int i = 0; i < 30; ++i) sup.alive("ecu.adas");
  });
  sched.run_until(SimTime::from_ms(70));
  EXPECT_EQ(sup.status("ecu.adas"), EntityStatus::kExpired);
}

// ---------------------------------------------------------------------------
// Deadline + logical supervision

TEST(Supervisor, DeadlineViolationFailsTheCycle) {
  Scheduler sched;
  Telemetry t;
  HealthSupervisor sup(sched, "sup", t);
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 1;
  cfg.max_margin = 100;  // alive indications are not under test here
  EscalationPolicy esc;
  esc.failed_tolerance = 0;
  sup.supervise_alive("task.ctrl", cfg, esc);
  sup.set_deadline("task.ctrl", {SimTime::zero(), SimTime::from_ms(2)});
  sup.start();

  sim::PeriodicTask beats(
      sched, SimTime::from_ms(5), [&] { sup.alive("task.ctrl"); },
      SimTime::from_ms(1));
  // In-budget execution: 1 ms.
  sched.schedule_at(SimTime::from_ms(2), [&] { sup.deadline_start("task.ctrl"); });
  sched.schedule_at(SimTime::from_ms(3), [&] { sup.deadline_end("task.ctrl"); });
  sched.run_until(SimTime::from_ms(10));
  EXPECT_EQ(sup.status("task.ctrl"), EntityStatus::kOk);
  // Budget blown: 5 ms > max 2 ms.
  sched.schedule_at(SimTime::from_ms(12), [&] { sup.deadline_start("task.ctrl"); });
  sched.schedule_at(SimTime::from_ms(17), [&] { sup.deadline_end("task.ctrl"); });
  sched.run_until(SimTime::from_ms(25));
  beats.stop();
  EXPECT_EQ(sup.status("task.ctrl"), EntityStatus::kExpired);
  EXPECT_EQ(t.bus->count("supervisor.sup", "deadline_violation"), 1u);
}

TEST(Supervisor, LogicalSupervisionCatchesBadTransition) {
  Scheduler sched;
  Telemetry t;
  HealthSupervisor sup(sched, "sup", t);
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 1;
  cfg.max_margin = 100;
  EscalationPolicy esc;
  esc.failed_tolerance = 0;
  sup.supervise_alive("task.boot", cfg, esc);
  // Allowed control flow: 1 -> 2 -> 3, plus the 3 -> 1 loop edge.
  sup.add_logical_transition("task.boot", 1, 2);
  sup.add_logical_transition("task.boot", 2, 3);
  sup.add_logical_transition("task.boot", 3, 1);
  sup.start();
  sim::PeriodicTask beats(
      sched, SimTime::from_ms(5), [&] { sup.alive("task.boot"); },
      SimTime::from_ms(1));
  sched.schedule_at(SimTime::from_ms(2), [&] {
    sup.checkpoint("task.boot", 1);
    sup.checkpoint("task.boot", 2);
    sup.checkpoint("task.boot", 3);
    sup.checkpoint("task.boot", 1);
  });
  sched.run_until(SimTime::from_ms(10));
  EXPECT_EQ(sup.status("task.boot"), EntityStatus::kOk);
  // Jumping 2 -> 1 (skipping checkpoint 3) is a control-flow violation.
  sched.schedule_at(SimTime::from_ms(12), [&] {
    sup.checkpoint("task.boot", 2);  // 1 -> 2: allowed continuation
    sup.checkpoint("task.boot", 1);  // 2 -> 1: not in the graph
  });
  sched.run_until(SimTime::from_ms(25));
  beats.stop();
  EXPECT_EQ(sup.status("task.boot"), EntityStatus::kExpired);
  EXPECT_EQ(t.bus->count("supervisor.sup", "logical_violation"), 1u);
}

// ---------------------------------------------------------------------------
// Escalation ladder + reset backoff

TEST(Supervisor, EscalationClimbsLadderThenRecovers) {
  Scheduler sched;
  Telemetry t;
  HealthSupervisor sup(sched, "sup", t);
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 2;
  cfg.min_margin = 1;
  cfg.max_margin = 1;
  EscalationPolicy esc;
  esc.failed_tolerance = 0;
  esc.max_resets = 2;  // 2 failed attempts per rung
  esc.reset_backoff = SimTime::from_ms(5);
  esc.max_backoff = SimTime::from_ms(20);
  esc.domain = "body";
  sup.supervise_alive("ecu.body", cfg, esc);

  // The component stays dead until t = 120 ms; resets fail before that.
  bool component_up = false;
  sched.schedule_at(SimTime::from_ms(120), [&] { component_up = true; });
  int reset_calls = 0;
  sup.set_reset_handler("ecu.body", [&](const std::string&) {
    ++reset_calls;
    return component_up;
  });
  std::vector<std::pair<std::string, EscalationLevel>> degrades;
  sup.set_degrade_handler([&](const std::string& domain, EscalationLevel l) {
    degrades.emplace_back(domain, l);
  });
  // Heartbeats flow only while the component is up: the entity expires on
  // the first cycle and, once reset, stays healthy with no re-expiry.
  HeartbeatEmitter hb(sched, sup, "ecu.body", SimTime::from_ms(5),
                      [&] { return component_up; });
  hb.start();
  sup.start();

  sched.run_until(SimTime::from_ms(200));
  EXPECT_EQ(sup.status("ecu.body"), EntityStatus::kOk);
  EXPECT_EQ(sup.escalation("ecu.body"), EscalationLevel::kNone);
  EXPECT_FALSE(sup.limp_home());
  EXPECT_GT(reset_calls, 4);  // several storm-bounded attempts before success
  EXPECT_EQ(sup.resets_succeeded(), 1u);
  EXPECT_EQ(sup.resets_attempted(), static_cast<std::uint64_t>(reset_calls));

  // Ladder: domain degrade after 2 failed resets, limp-home after 4, and the
  // recovery hands the domain back (kNone) exactly once.
  ASSERT_GE(degrades.size(), 3u);
  EXPECT_EQ(degrades[0],
            std::make_pair(std::string("body"), EscalationLevel::kDomainDegrade));
  EXPECT_EQ(degrades[1],
            std::make_pair(std::string("body"), EscalationLevel::kLimpHome));
  EXPECT_EQ(degrades.back(),
            std::make_pair(std::string("body"), EscalationLevel::kNone));
  EXPECT_EQ(degrades.size(), 3u);

  const std::uint64_t expired = seq_of(t, "supervisor.sup", "entity_expired");
  const std::uint64_t escalate = seq_of(t, "supervisor.sup", "escalate");
  const std::uint64_t reset_ok = seq_of(t, "supervisor.sup", "reset_ok");
  const std::uint64_t recovered = seq_of(t, "supervisor.sup", "entity_recovered");
  ASSERT_NE(expired, 0u);
  ASSERT_NE(escalate, 0u);
  ASSERT_NE(reset_ok, 0u);
  ASSERT_NE(recovered, 0u);
  EXPECT_LT(expired, reset_ok);
  EXPECT_LT(escalate, reset_ok);
  EXPECT_LT(reset_ok, recovered);

  // Backoff trace must be bounded by max_backoff.
  const sim::TraceId k_backoff = t.bus->lookup("reset_backoff");
  ASSERT_NE(k_backoff, 0u);
  std::uint64_t max_seen_ns = 0;
  for (std::size_t i = 0; i < t.bus->size(); ++i) {
    const sim::TraceEvent& e = t.bus->event(i);
    if (e.kind != k_backoff) continue;
    const auto pos = e.detail.find("ns=");
    ASSERT_NE(pos, std::string::npos);
    max_seen_ns = std::max(
        max_seen_ns,
        static_cast<std::uint64_t>(std::stoull(e.detail.substr(pos + 3))));
  }
  EXPECT_GT(max_seen_ns, 0u);
  EXPECT_LE(max_seen_ns, static_cast<std::uint64_t>(SimTime::from_ms(20).ns));
}

TEST(Supervisor, RecoveredEntitySurvivesThePartialWindow) {
  // After a successful reset the partial supervision window must not be
  // evaluated (the fresh component cannot have beaten earlier in it), and
  // the resumed heartbeats must keep the entity kOk with no re-expiry.
  Scheduler sched;
  HealthSupervisor sup(sched, "sup");
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(10);
  cfg.expected = 10;
  cfg.min_margin = 2;
  cfg.max_margin = 2;
  EscalationPolicy esc;
  esc.failed_tolerance = 0;
  esc.reset_backoff = SimTime::from_ms(3);
  sup.supervise_alive("ecu.x", cfg, esc);
  bool up = true;
  sched.schedule_at(SimTime::from_ms(30), [&] { up = false; });
  sched.schedule_at(SimTime::from_ms(55), [&] { up = true; });
  sup.set_reset_handler("ecu.x", [&](const std::string&) { return up; });
  HeartbeatEmitter hb(sched, sup, "ecu.x", SimTime::from_ms(1),
                      [&] { return up; });
  hb.start();
  sup.start();
  sched.run_until(SimTime::from_ms(200));
  EXPECT_EQ(sup.status("ecu.x"), EntityStatus::kOk);
  EXPECT_EQ(sup.expirations(), 1u);  // exactly one incident, no re-expiry
  EXPECT_GT(hb.suppressed(), 0u);
}

// ---------------------------------------------------------------------------
// Hot-standby redundant gateway

struct Sink final : ivn::CanNode {
  using ivn::CanNode::CanNode;
  void on_frame(const ivn::CanFrame& f, SimTime) override { rx.push_back(f); }
  std::vector<ivn::CanFrame> rx;
};

ivn::CanFrame make_frame(std::uint32_t id) {
  ivn::CanFrame f;
  f.id = id;
  f.data = Bytes{0x11, 0x22};
  return f;
}

struct RedundantRig {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus body{sched, "can.body", 500'000, 0, t};
  ivn::CanBus chassis{sched, "can.chassis", 500'000, 0, t};
  gateway::RedundantGateway rgw{
      sched, "gw", gateway::SecurityGateway::kDefaultProcessingDelay, t};
  Sink sender{"sender"};
  Sink receiver{"receiver"};

  RedundantRig() {
    rgw.add_domain("body", &body);
    rgw.add_domain("chassis", &chassis);
    rgw.add_route(0x100, "body", "chassis", /*safety_critical=*/true);
    body.attach(&sender);
    chassis.attach(&receiver);
  }
};

TEST(RedundantGateway, StandbyShadowsWithoutDoubleDelivery) {
  RedundantRig rig;
  for (int i = 0; i < 5; ++i) {
    rig.sched.schedule_at(SimTime::from_ms(1 + i),
                          [&] { rig.body.send(&rig.sender, make_frame(0x100)); });
  }
  rig.sched.run();
  // Exactly one copy per frame reaches the destination (the active's), while
  // the standby's shadow pipeline admitted the same five frames.
  EXPECT_EQ(rig.receiver.rx.size(), 5u);
  EXPECT_EQ(rig.rgw.active().stats().forwarded, 5u);
  EXPECT_EQ(rig.rgw.standby().stats().forwarded, 0u);
  EXPECT_EQ(rig.rgw.standby().shadow_forwarded(), 5u);
}

TEST(RedundantGateway, SyncReplicatesDynamicState) {
  RedundantRig rig;
  gateway::DegradedModeConfig cfg;
  cfg.window = SimTime::from_ms(10);
  cfg.degrade_threshold = 5;
  rig.rgw.enable_degraded_mode(cfg);
  rig.rgw.start_sync(SimTime::from_ms(5));
  // A fault report lands only on the active; replication must carry the
  // resulting degraded mode to the standby before any failover needs it.
  rig.sched.schedule_at(SimTime::from_ms(1),
                        [&] { rig.rgw.active().report_domain_fault("body", 6); });
  rig.sched.schedule_at(SimTime::from_ms(11), [&] {
    EXPECT_EQ(rig.rgw.active().mode("body"), gateway::GatewayMode::kDegraded);
  });
  rig.sched.run_until(SimTime::from_ms(16));  // sync at 15ms sees the mode
  rig.rgw.stop_sync();
  EXPECT_EQ(rig.rgw.standby().mode("body"), gateway::GatewayMode::kDegraded);
  EXPECT_GT(rig.rgw.syncs(), 0u);
}

TEST(RedundantGateway, SupervisedFailoverMeasuresDowntime) {
  // The full tentpole chain: FaultPlan crashes the active gateway; missed
  // heartbeats expire the supervised entity; the reset handler promotes the
  // standby; traffic resumes; the repaired unit rejoins as standby; the
  // plan ends with zero unrecovered faults.
  RedundantRig rig;
  rig.rgw.start_sync(SimTime::from_ms(10));
  FaultPlan plan(rig.sched, 17, rig.t);
  plan.on("gw.active", FaultKind::kCrash, [&](const FaultSpec&, bool active) {
    rig.rgw.set_active_down(active);
    if (!active) plan.notify_recovered("gw.active");
  });
  plan.window(SimTime::from_ms(50), SimTime::from_ms(60),
              {"gw.active", FaultKind::kCrash});

  HealthSupervisor sup(rig.sched, "sup", rig.t);
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(5);
  cfg.expected = 5;
  cfg.min_margin = 2;
  cfg.max_margin = 2;
  EscalationPolicy esc;
  esc.failed_tolerance = 1;
  sup.supervise_alive("gw.active", cfg, esc);
  sup.set_reset_handler("gw.active",
                        [&](const std::string&) { return rig.rgw.failover(); });
  // Heartbeats come from whichever unit is currently active.
  HeartbeatEmitter hb(rig.sched, sup, "gw.active", SimTime::from_ms(1),
                      [&] { return !rig.rgw.active().offline(); });
  hb.start();
  sup.start();

  sim::PeriodicTask traffic(
      rig.sched, SimTime::from_ms(2),
      [&] { rig.body.send(&rig.sender, make_frame(0x100)); },
      SimTime::from_ms(2));
  rig.sched.run_until(SimTime::from_ms(200));
  traffic.stop();

  // Failover happened, the promoted unit is b, and traffic kept flowing.
  EXPECT_EQ(rig.rgw.failovers(), 1u);
  EXPECT_EQ(rig.rgw.active().trace().component(), "gw.b");
  EXPECT_TRUE(rig.rgw.active().forwarding());
  EXPECT_FALSE(rig.rgw.active().offline());
  EXPECT_EQ(sup.status("gw.active"), EntityStatus::kOk);
  EXPECT_EQ(plan.unrecovered(), 0u);

  // Downtime: the crash at 50ms was detected within a few supervision
  // cycles, and the frames sent in that gap are exactly the measured loss.
  const SimTime detect = rig.rgw.last_detection_latency();
  EXPECT_GE(detect, SimTime::from_ms(5));
  EXPECT_LE(detect, SimTime::from_ms(30));
  EXPECT_GE(rig.rgw.last_failover_frames_lost(), 2u);
  EXPECT_LE(rig.rgw.last_failover_frames_lost(), 15u);
  // Receiver missed only the downtime window out of ~100 sent frames.
  EXPECT_GE(rig.receiver.rx.size(), 80u);

  // Causal chain on the shared timeline.
  const std::uint64_t inject = seq_of(rig.t, "faultplan", "inject");
  const std::uint64_t down = seq_of(rig.t, "rgw.gw", "active_down");
  const std::uint64_t expired = seq_of(rig.t, "supervisor.sup", "entity_expired");
  const std::uint64_t failover = seq_of(rig.t, "rgw.gw", "failover");
  const std::uint64_t rejoin = seq_of(rig.t, "rgw.gw", "standby_rejoin");
  const std::uint64_t recovered = seq_of(rig.t, "faultplan", "recovered");
  ASSERT_NE(inject, 0u);
  ASSERT_NE(down, 0u);
  ASSERT_NE(expired, 0u);
  ASSERT_NE(failover, 0u);
  ASSERT_NE(rejoin, 0u);
  ASSERT_NE(recovered, 0u);
  EXPECT_LT(inject, down);
  EXPECT_LT(down, expired);
  EXPECT_LT(expired, failover);
  EXPECT_LT(failover, rejoin);
  EXPECT_LT(rejoin, recovered);
}

TEST(RedundantGateway, ShortBlipResumesWithoutFailover) {
  // A crash shorter than the detection window clears before the supervisor
  // expires the entity: the active simply resumes, no switchover.
  RedundantRig rig;
  FaultPlan plan(rig.sched, 17);
  plan.on("gw.active", FaultKind::kCrash, [&](const FaultSpec&, bool active) {
    rig.rgw.set_active_down(active);
    if (!active) plan.notify_recovered("gw.active");
  });
  plan.window(SimTime::from_ms(50), SimTime::from_ms(3),
              {"gw.active", FaultKind::kCrash});
  HealthSupervisor sup(rig.sched, "sup");
  AliveSupervision cfg;
  cfg.period = SimTime::from_ms(20);
  cfg.expected = 20;
  cfg.min_margin = 10;
  cfg.max_margin = 2;
  EscalationPolicy esc;
  esc.failed_tolerance = 2;
  sup.supervise_alive("gw.active", cfg, esc);
  sup.set_reset_handler("gw.active",
                        [&](const std::string&) { return rig.rgw.failover(); });
  HeartbeatEmitter hb(rig.sched, sup, "gw.active", SimTime::from_ms(1),
                      [&] { return !rig.rgw.active().offline(); });
  hb.start();
  sup.start();
  rig.sched.run_until(SimTime::from_ms(150));
  EXPECT_EQ(rig.rgw.failovers(), 0u);
  EXPECT_EQ(sup.expirations(), 0u);
  EXPECT_EQ(rig.rgw.active().trace().component(), "gw.a");
  EXPECT_TRUE(rig.rgw.active().forwarding());
  EXPECT_EQ(plan.unrecovered(), 0u);
}

// ---------------------------------------------------------------------------
// 2oo2 dual-channel voter

adas::PerceptionSensor::Config quiet_sensor() {
  adas::PerceptionSensor::Config c;
  c.range_noise_m = 0.01;
  c.dropout_prob = 0.0;
  return c;
}

TEST(DualChannelVoter, CorroboratedDetectionsPass) {
  adas::PerceptionSensor a(quiet_sensor(), 1), b(quiet_sensor(), 2);
  adas::DualChannelVoter voter(&a, &b);
  const std::vector<adas::TruthObject> truth = {{40.0, 0.0, 5.0}};
  const auto out = voter.sample(truth);
  EXPECT_EQ(out.verdict, adas::VoteVerdict::kAgree);
  ASSERT_EQ(out.detections.size(), 1u);
  EXPECT_NEAR(out.detections[0].range_m, 40.0, 0.5);
  EXPECT_EQ(out.matched, 1u);
  EXPECT_EQ(voter.suppressed_detections(), 0u);
}

TEST(DualChannelVoter, GhostInOneChannelSuppressedAndAlarms) {
  adas::PerceptionSensor a(quiet_sensor(), 1), b(quiet_sensor(), 2);
  adas::DualChannelVoter voter(&a, &b);
  // LIDAR spoofing on channel A only: a ghost at 8 m no real object backs.
  adas::Detection ghost;
  ghost.range_m = 8.0;
  ghost.rel_speed_mps = 12.0;
  a.inject_ghost(ghost);
  const std::vector<adas::TruthObject> truth = {{60.0, 0.0, 3.0}};
  for (int i = 0; i < 3; ++i) {
    const auto out = voter.sample(truth);
    EXPECT_EQ(out.verdict, adas::VoteVerdict::kDisagree);
    // The real object still passes; the uncorroborated ghost does not.
    ASSERT_EQ(out.detections.size(), 1u);
    EXPECT_NEAR(out.detections[0].range_m, 60.0, 0.5);
    EXPECT_EQ(out.unmatched_a, 1u);
  }
  EXPECT_EQ(voter.suppressed_detections(), 3u);
  EXPECT_TRUE(voter.plausibility_alarm());
}

TEST(DualChannelVoter, TransientDisagreementDoesNotAlarm) {
  adas::PerceptionSensor a(quiet_sensor(), 1), b(quiet_sensor(), 2);
  adas::DualChannelVoter voter(&a, &b);
  const std::vector<adas::TruthObject> truth = {{60.0, 0.0, 3.0}};
  adas::Detection ghost;
  ghost.range_m = 8.0;
  a.inject_ghost(ghost);
  voter.sample(truth);  // disagree x1
  voter.sample(truth);  // disagree x2
  a.inject_ghost(std::nullopt);
  voter.sample(truth);  // agree resets the streak
  a.inject_ghost(ghost);
  voter.sample(truth);
  voter.sample(truth);
  EXPECT_FALSE(voter.plausibility_alarm());
  EXPECT_EQ(voter.frames_agreed(), 1u);
  EXPECT_EQ(voter.frames_disagreed(), 4u);
}

TEST(DualChannelVoter, SupervisorDrivesDegradedSingleChannel) {
  // The supervisor's status handler is the wiring point: a failed sensor
  // channel drops the voter to 1oo1 with scaled confidence, and recovery
  // restores 2oo2.
  Scheduler sched;
  adas::PerceptionSensor a(quiet_sensor(), 1), b(quiet_sensor(), 2);
  adas::DualChannelVoter voter(&a, &b);

  HealthSupervisor sup(sched, "adas");
  AliveSupervision alive_cfg;
  alive_cfg.period = SimTime::from_ms(10);
  alive_cfg.expected = 10;
  alive_cfg.min_margin = 2;
  alive_cfg.max_margin = 2;
  EscalationPolicy esc;
  esc.failed_tolerance = 0;
  esc.reset_backoff = SimTime::from_ms(10);
  sup.supervise_alive("sensor.a", alive_cfg, esc);
  sup.set_status_handler([&](const std::string& entity, EntityStatus s) {
    if (entity == "sensor.a") {
      voter.set_channel_failed(0, s != EntityStatus::kOk);
    }
  });
  bool sensor_a_up = true;
  sched.schedule_at(SimTime::from_ms(30), [&] { sensor_a_up = false; });
  sched.schedule_at(SimTime::from_ms(80), [&] { sensor_a_up = true; });
  sup.set_reset_handler("sensor.a",
                        [&](const std::string&) { return sensor_a_up; });
  HeartbeatEmitter hb(sched, sup, "sensor.a", SimTime::from_ms(1),
                      [&] { return sensor_a_up; });
  hb.start();
  sup.start();

  const std::vector<adas::TruthObject> truth = {{50.0, 0.0, 4.0}};
  std::vector<adas::VoteVerdict> verdicts;
  std::vector<double> confidences;
  sim::PeriodicTask frames(
      sched, SimTime::from_ms(10),
      [&] {
        const auto out = voter.sample(truth);
        verdicts.push_back(out.verdict);
        if (!out.detections.empty()) {
          confidences.push_back(out.detections[0].confidence);
        }
      },
      SimTime::from_ms(7));
  sched.run_until(SimTime::from_ms(150));
  frames.stop();

  // The verdict sequence walks 2oo2 -> 1oo1 degraded -> 2oo2.
  EXPECT_EQ(verdicts.front(), adas::VoteVerdict::kAgree);
  EXPECT_NE(std::find(verdicts.begin(), verdicts.end(),
                      adas::VoteVerdict::kDegradedSingle),
            verdicts.end());
  EXPECT_EQ(verdicts.back(), adas::VoteVerdict::kAgree);
  EXPECT_GT(voter.frames_degraded(), 0u);
  // Degraded frames carry the scaled-down confidence.
  double min_conf = 1.0;
  for (double c : confidences) min_conf = std::min(min_conf, c);
  EXPECT_LE(min_conf, 0.5);
}

TEST(DualChannelVoter, BothChannelsFailedMeansNoData) {
  adas::PerceptionSensor a(quiet_sensor(), 1), b(quiet_sensor(), 2);
  adas::DualChannelVoter voter(&a, &b);
  voter.set_channel_failed(0, true);
  voter.set_channel_failed(1, true);
  const auto out = voter.sample({{30.0, 0.0, 2.0}});
  EXPECT_EQ(out.verdict, adas::VoteVerdict::kNoData);
  EXPECT_TRUE(out.detections.empty());
}

}  // namespace
}  // namespace aseck
