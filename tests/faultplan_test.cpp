// Tests for the deterministic fault-injection engine (sim::FaultPlan) and
// the paired resilience mechanisms: substrate fault ports, CAN bus-off
// auto-recovery, gateway graceful degradation, OTA retry/resume, and the
// shared safety-campaign schema. The acceptance bar is the ordered
// inject -> degrade -> recover chain on one shared TraceBus per substrate.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gateway/gateway.hpp"
#include "ivn/can.hpp"
#include "ivn/ethernet.hpp"
#include "ivn/flexray.hpp"
#include "ivn/lin.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "safety/fault.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"
#include "v2x/net.hpp"

namespace aseck {
namespace {

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
// Engine core

TEST(FaultPlan, WindowArmsAndClearsPort) {
  Scheduler sched;
  FaultPlan plan(sched, 1);
  sim::FaultPort& port = plan.port("can.x");
  plan.window(SimTime::from_ms(1), SimTime::from_ms(2),
              {"can.x", FaultKind::kFrameDrop, 1.0});
  EXPECT_FALSE(port.active());
  sched.run_until(SimTime::from_ms(1));
  EXPECT_TRUE(port.active());
  EXPECT_TRUE(port.roll_drop());
  sched.run_until(SimTime::from_ms(4));
  EXPECT_FALSE(port.active());
  EXPECT_FALSE(port.roll_drop());
  // Frame-level kinds auto-recover the moment the window clears.
  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_EQ(plan.recovered(), 1u);
  EXPECT_EQ(plan.unrecovered(), 0u);
  ASSERT_EQ(plan.records().size(), 1u);
  EXPECT_EQ(plan.records()[0].recovery_latency(), SimTime::from_ms(2));
}

TEST(FaultPlan, OverlappingDownWindowsNest) {
  Scheduler sched;
  FaultPlan plan(sched, 1);
  sim::FaultPort& port = plan.port("ota.repo");
  plan.window(SimTime::from_ms(1), SimTime::from_ms(3),
              {"ota.repo", FaultKind::kOutage});
  plan.window(SimTime::from_ms(2), SimTime::from_ms(4),
              {"ota.repo", FaultKind::kOutage});
  sched.run_until(SimTime::from_ms(3));  // inside both
  EXPECT_TRUE(port.down());
  sched.run_until(SimTime::from_ms(5));  // first cleared, second still active
  EXPECT_TRUE(port.down());
  sched.run_until(SimTime::from_ms(7));  // both cleared
  EXPECT_FALSE(port.down());
}

TEST(FaultPlan, HandlerSeesBeginAndEnd) {
  Scheduler sched;
  FaultPlan plan(sched, 1);
  std::vector<bool> calls;
  std::string target;
  plan.on("gw.body", FaultKind::kPartition,
          [&](const FaultSpec& spec, bool active) {
            calls.push_back(active);
            target = spec.target;
          });
  plan.window(SimTime::from_ms(1), SimTime::from_ms(2),
              {"gw.body", FaultKind::kPartition});
  sched.run();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_TRUE(calls[0]);
  EXPECT_FALSE(calls[1]);
  EXPECT_EQ(target, "gw.body");
}

TEST(FaultPlan, StatefulFaultNeedsNotifyRecovered) {
  Scheduler sched;
  FaultPlan plan(sched, 1);
  plan.window(SimTime::from_ms(1), SimTime::from_ms(1),
              {"ecu.brake", FaultKind::kCrash});
  sched.run();
  // Window cleared but the component has not reported back yet.
  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_EQ(plan.recovered(), 0u);
  EXPECT_EQ(plan.unrecovered(), 1u);
  // Component observed healthy at t=5ms (scheduler already drained to 2ms;
  // model the reboot completing later by advancing the clock).
  sched.schedule_at(SimTime::from_ms(5),
                    [&] { EXPECT_EQ(plan.notify_recovered("ecu.brake"), 1u); });
  sched.run();
  EXPECT_EQ(plan.unrecovered(), 0u);
  ASSERT_EQ(plan.records().size(), 1u);
  EXPECT_EQ(plan.records()[0].recovery_latency(), SimTime::from_ms(4));
}

TEST(FaultPlan, JsonExportIsSeedDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    Scheduler sched;
    FaultPlan plan(sched, seed);
    const std::vector<FaultSpec> specs = {
        {"can0", FaultKind::kFrameDrop, 0.5},
        {"ota.repo", FaultKind::kOutage},
        {"gw.body", FaultKind::kPartition},
    };
    plan.random_campaign(SimTime::zero(), SimTime::from_s(2), 20.0,
                         SimTime::from_ms(10), specs);
    sched.run();
    return plan.to_json();
  };
  const std::string a = run_once(42);
  EXPECT_EQ(a, run_once(42));
  EXPECT_NE(a, run_once(43));
}

TEST(FaultPlan, SafetyCampaignSharesRngAndTraces) {
  std::vector<safety::FunctionModel> fns(1);
  fns[0].name = "braking";
  fns[0].components = {"ecu.brake", "sensor.wheel"};
  fns[0].redundancy_groups = {{"ecu.brake", "ecu.brake.backup"}};

  const auto run_once = [&](std::uint64_t seed) {
    Scheduler sched;
    FaultPlan plan(sched, seed);
    return safety::run_fault_campaign(fns, 0.3, 500, plan);
  };
  const safety::FaultCampaignResult a = run_once(7);
  const safety::FaultCampaignResult b = run_once(7);
  EXPECT_EQ(a.trials, 500u);
  EXPECT_GT(a.function_failures.at("braking"), 0u);
  EXPECT_EQ(a.function_failures, b.function_failures);
  EXPECT_NEAR(a.failure_rate("braking"),
              static_cast<double>(a.function_failures.at("braking")) / 500.0,
              1e-12);

  // The campaign lands on the plan's trace timeline.
  Scheduler sched;
  FaultPlan plan(sched, 7);
  safety::run_fault_campaign(fns, 0.3, 10, plan);
  EXPECT_EQ(plan.trace().bus()->count("faultplan", "campaign"), 1u);

  // Both overloads report through the same schema.
  const safety::FaultCampaignResult seeded =
      safety::run_fault_campaign(fns, 0.3, 500, std::uint64_t{99});
  EXPECT_EQ(seeded.trials, a.trials);
}

// ---------------------------------------------------------------------------
// CAN: frame faults + bus-off auto-recovery

struct TestCanNode : ivn::CanNode {
  using ivn::CanNode::CanNode;
  void on_frame(const ivn::CanFrame& frame, SimTime) override {
    rx.push_back(frame);
  }
  void on_tx_done(const ivn::CanFrame&, SimTime) override { ++tx_done; }
  void on_bus_off(SimTime) override { ++bus_off_seen; }
  std::vector<ivn::CanFrame> rx;
  int tx_done = 0;
  int bus_off_seen = 0;
};

ivn::CanFrame make_frame(std::uint32_t id, Bytes data = {0x11, 0x22}) {
  ivn::CanFrame f;
  f.id = id;
  f.data = std::move(data);
  return f;
}

TEST(CanFault, DropWindowLosesFramesOnOneTimeline) {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus bus(sched, "can0", 500'000, 0, t);
  TestCanNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  FaultPlan plan(sched, 5, t);
  bus.set_fault_port(&plan.port("can0"));

  plan.window(SimTime::from_ms(1), SimTime::from_ms(100),
              {"can0", FaultKind::kFrameDrop, 1.0});
  for (int i = 0; i < 3; ++i) {
    sched.schedule_at(SimTime::from_ms(2 + i),
                      [&] { bus.send(&a, make_frame(0x100)); });
  }
  sched.run();
  EXPECT_TRUE(b.rx.empty());
  EXPECT_EQ(t.metrics->counter_value("can.can0.frames_dropped_fault"), 3u);
  // Causal chain: injection strictly precedes the first dropped frame.
  const std::uint64_t inject = seq_of(t, "faultplan", "inject");
  const std::uint64_t drop = seq_of(t, "can0", "fault_drop");
  ASSERT_NE(inject, 0u);
  ASSERT_NE(drop, 0u);
  EXPECT_LT(inject, drop);
}

TEST(CanFault, DuplicateWindowDeliversTwice) {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus bus(sched, "can0", 500'000, 0, t);
  TestCanNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  FaultPlan plan(sched, 5);
  bus.set_fault_port(&plan.port("can0"));
  plan.window(SimTime::from_ms(1), SimTime::from_ms(100),
              {"can0", FaultKind::kFrameDuplicate, 1.0});
  sched.schedule_at(SimTime::from_ms(2), [&] { bus.send(&a, make_frame(0x7)); });
  sched.run();
  EXPECT_EQ(b.rx.size(), 2u);
  EXPECT_EQ(a.tx_done, 1);
  EXPECT_EQ(t.metrics->counter_value("can.can0.frames_duplicated"), 1u);
}

TEST(CanFault, BusOffAutoRecoveryOrderedTimeline) {
  // Satellite 3: injected transmission errors drive the sender into bus-off;
  // the auto-recovery timer brings it back after the fault window clears and
  // traffic resumes. The whole chain must appear in order on one TraceBus:
  // inject < bus_off < recover < tx.
  Scheduler sched;
  Telemetry t;
  ivn::CanBus bus(sched, "can0", 500'000, 0, t);
  bus.set_auto_recovery(SimTime::from_ms(20));
  TestCanNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  FaultPlan plan(sched, 5, t);
  bus.set_fault_port(&plan.port("can0"));

  // Every TX attempt inside the window suffers a bit error: TEC += 8 per
  // attempt, so the pending frame marches the sender to bus-off (TEC > 255).
  plan.window(SimTime::from_ms(1), SimTime::from_ms(10),
              {"can0", FaultKind::kFrameCorrupt, 1.0});
  sched.schedule_at(SimTime::from_ms(2), [&] { bus.send(&a, make_frame(0x50)); });
  sched.run_until(SimTime::from_ms(15));
  EXPECT_EQ(a.state(), ivn::CanNodeState::kBusOff);
  EXPECT_EQ(a.bus_off_seen, 1);
  EXPECT_TRUE(b.rx.empty());

  // Auto-recovery fires ~20ms after bus-off, well past the window end, and
  // a fresh frame then goes through cleanly.
  sched.schedule_at(SimTime::from_ms(40), [&] {
    EXPECT_EQ(a.state(), ivn::CanNodeState::kErrorActive);
    EXPECT_EQ(a.tec(), 0);
    EXPECT_TRUE(bus.send(&a, make_frame(0x51)));
  });
  sched.run();
  ASSERT_EQ(b.rx.size(), 1u);
  EXPECT_EQ(b.rx[0].id, 0x51u);
  EXPECT_EQ(a.tx_done, 1);

  const std::uint64_t inject = seq_of(t, "faultplan", "inject");
  const std::uint64_t bus_off = seq_of(t, "can0", "bus_off");
  const std::uint64_t recover = seq_of(t, "can0", "recover");
  const std::uint64_t tx = seq_of(t, "can0", "tx");
  ASSERT_NE(inject, 0u);
  ASSERT_NE(bus_off, 0u);
  ASSERT_NE(recover, 0u);
  ASSERT_NE(tx, 0u);
  EXPECT_LT(inject, bus_off);
  EXPECT_LT(bus_off, recover);
  EXPECT_LT(recover, tx);
}

TEST(CanFault, BusDownWindowStallsThenResumes) {
  Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500'000);
  TestCanNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  FaultPlan plan(sched, 5);
  bus.set_fault_port(&plan.port("can0"));
  plan.window(SimTime::from_ms(1), SimTime::from_ms(10),
              {"can0", FaultKind::kCrash});
  sched.schedule_at(SimTime::from_ms(2), [&] { bus.send(&a, make_frame(0x9)); });
  sched.run_until(SimTime::from_ms(10));
  EXPECT_TRUE(b.rx.empty());  // nothing transmits while the bus is down
  // Queued frame resumes on the next send after the window clears.
  sched.schedule_at(SimTime::from_ms(20),
                    [&] { bus.send(&a, make_frame(0xA)); });
  sched.run();
  plan.notify_recovered("can0");
  EXPECT_EQ(b.rx.size(), 2u);
  EXPECT_EQ(plan.unrecovered(), 0u);
}

// ---------------------------------------------------------------------------
// LIN / FlexRay / Ethernet

struct TestLinSlave : ivn::LinSlave {
  std::optional<Bytes> respond(std::uint8_t id) override {
    return id == 0x10 ? std::optional<Bytes>(Bytes{0xAA, 0xBB}) : std::nullopt;
  }
  void on_frame(const ivn::LinFrame&, SimTime) override { ++rx; }
  int rx = 0;
};

TEST(LinFault, DropWindowLosesResponses) {
  Scheduler sched;
  Telemetry t;
  ivn::LinMaster master(sched, "lin0", 19200, t);
  TestLinSlave slave;
  master.attach(&slave);
  master.set_schedule({{0x10, SimTime::from_ms(10)}});
  FaultPlan plan(sched, 3, t);
  master.set_fault_port(&plan.port("lin0"));
  plan.window(SimTime::from_ms(5), SimTime::from_ms(40),
              {"lin0", FaultKind::kFrameDrop, 1.0});
  master.start();
  sched.run_until(SimTime::from_ms(60));
  master.stop();
  // Slot 0 (t=0) completes before the window; slots at 10..40ms are eaten.
  EXPECT_GE(master.frames_ok(), 1u);
  EXPECT_GE(master.dropped_fault(), 3u);
  EXPECT_LT(seq_of(t, "faultplan", "inject"), seq_of(t, "lin0", "fault_drop"));
}

TEST(LinFault, CorruptWindowFeedsChecksumPath) {
  Scheduler sched;
  ivn::LinMaster master(sched, "lin0");
  TestLinSlave slave;
  master.attach(&slave);
  master.set_schedule({{0x10, SimTime::from_ms(10)}});
  FaultPlan plan(sched, 3);
  master.set_fault_port(&plan.port("lin0"));
  plan.window(SimTime::from_ms(5), SimTime::from_ms(40),
              {"lin0", FaultKind::kFrameCorrupt, 1.0});
  master.start();
  sched.run_until(SimTime::from_ms(60));
  master.stop();
  EXPECT_GE(master.checksum_errors(), 3u);
  EXPECT_EQ(master.dropped_fault(), 0u);
}

struct TestFlexNode : ivn::FlexRayNode {
  std::optional<Bytes> static_payload(std::uint16_t, std::uint8_t) override {
    return Bytes{0x01, 0x02};
  }
  void on_frame(const ivn::FlexRayFrame&, SimTime) override { ++rx; }
  int rx = 0;
};

TEST(FlexRayFault, DropWindowBurnsSlots) {
  Scheduler sched;
  Telemetry t;
  ivn::FlexRayBus bus(sched, "fr0", {}, t);
  TestFlexNode owner, listener;
  bus.assign_static_slot(1, &owner);
  bus.attach_listener(&listener);
  FaultPlan plan(sched, 3, t);
  bus.set_fault_port(&plan.port("fr0"));
  const SimTime cycle = bus.config().cycle_length();
  plan.window(cycle * 2, cycle * 3, {"fr0", FaultKind::kFrameDrop, 1.0});
  bus.start();
  sched.run_until(cycle * 8);
  bus.stop();
  // Cycles 0-1 deliver; the faulted cycles consume the slot without a frame.
  EXPECT_GE(listener.rx, 2);
  EXPECT_GE(bus.dropped_fault(), 2u);
  EXPECT_LT(static_cast<std::uint64_t>(listener.rx) + bus.dropped_fault() - 1,
            static_cast<std::uint64_t>(bus.static_frames() + bus.dropped_fault()));
  EXPECT_LT(seq_of(t, "faultplan", "inject"), seq_of(t, "fr0", "fault_drop"));
}

struct TestEthEndpoint : ivn::EthernetEndpoint {
  using ivn::EthernetEndpoint::EthernetEndpoint;
  void on_frame(const ivn::EthernetFrame& frame, SimTime) override {
    rx.push_back(frame);
  }
  std::vector<ivn::EthernetFrame> rx;
};

TEST(EthernetFault, DropCorruptAndDuplicate) {
  Scheduler sched;
  Telemetry t;
  ivn::EthernetSwitch sw(sched, "sw0", 100'000'000, SimTime::from_us(5), t);
  TestEthEndpoint a("a", ivn::mac_from_u64(1)), b("b", ivn::mac_from_u64(2));
  const std::size_t pa = sw.connect(&a);
  const std::size_t pb = sw.connect(&b);
  FaultPlan plan(sched, 9, t);
  sw.set_fault_port(&plan.port("sw0"));

  const auto frame_to_b = [&] {
    ivn::EthernetFrame f;
    f.src = a.mac();
    f.dst = b.mac();
    f.payload = Bytes{0x10, 0x20};
    return f;
  };
  // Teach the FDB both MACs before any faults.
  {
    ivn::EthernetFrame f;
    f.src = b.mac();
    f.dst = ivn::kBroadcastMac;
    sw.send(pb, f);
    sw.send(pa, frame_to_b());
  }
  sched.run();
  ASSERT_EQ(b.rx.size(), 1u);
  b.rx.clear();

  // Drop window: discarded at ingress, send() reports it.
  const std::uint64_t drop_id = plan.window(
      SimTime::from_ms(10), SimTime::from_ms(5), {"sw0", FaultKind::kFrameDrop, 1.0});
  sched.schedule_at(SimTime::from_ms(12),
                    [&] { EXPECT_FALSE(sw.send(pa, frame_to_b())); });
  sched.run();
  EXPECT_TRUE(b.rx.empty());
  EXPECT_EQ(sw.dropped_fault(), 1u);
  (void)drop_id;

  // Corrupt window: delivered, payload mangled.
  plan.window(SimTime::from_ms(20), SimTime::from_ms(5),
              {"sw0", FaultKind::kFrameCorrupt, 1.0});
  sched.schedule_at(SimTime::from_ms(22),
                    [&] { EXPECT_TRUE(sw.send(pa, frame_to_b())); });
  sched.run();
  ASSERT_EQ(b.rx.size(), 1u);
  EXPECT_NE(b.rx[0].payload[0], 0x10);
  EXPECT_EQ(sw.corrupted_fault(), 1u);
  b.rx.clear();

  // Duplicate window: forwarded twice.
  plan.window(SimTime::from_ms(30), SimTime::from_ms(5),
              {"sw0", FaultKind::kFrameDuplicate, 1.0});
  sched.schedule_at(SimTime::from_ms(32),
                    [&] { EXPECT_TRUE(sw.send(pa, frame_to_b())); });
  sched.run();
  EXPECT_EQ(b.rx.size(), 2u);
  EXPECT_EQ(sw.duplicated_fault(), 1u);
  EXPECT_EQ(plan.unrecovered(), 0u);  // frame kinds all auto-recover
}

TEST(EthernetFault, DelayWindowStretchesLatency) {
  Scheduler sched;
  ivn::EthernetSwitch sw(sched, "sw0");
  TestEthEndpoint a("a", ivn::mac_from_u64(1)), b("b", ivn::mac_from_u64(2));
  const std::size_t pa = sw.connect(&a);
  sw.connect(&b);
  FaultPlan plan(sched, 9);
  sw.set_fault_port(&plan.port("sw0"));
  FaultSpec spec{"sw0", FaultKind::kFrameDelay, 1.0};
  spec.delay = SimTime::from_ms(7);
  plan.window(SimTime::from_ms(1), SimTime::from_ms(100), spec);

  ivn::EthernetFrame f;
  f.src = a.mac();
  f.dst = ivn::kBroadcastMac;
  SimTime delivered_at = SimTime::zero();
  sched.schedule_at(SimTime::from_ms(2), [&] { sw.send(pa, f); });
  sched.run();
  ASSERT_EQ(b.rx.size(), 1u);
  delivered_at = sched.now();
  EXPECT_GE(delivered_at, SimTime::from_ms(9));  // 2ms send + 7ms injected
}

// ---------------------------------------------------------------------------
// V2X radio-loss burst

struct StubRadio : v2x::V2xRadio {
  StubRadio(std::string n, v2x::Position p)
      : v2x::V2xRadio(std::move(n)), pos(p) {}
  v2x::Position position() const override { return pos; }
  void on_spdu(const v2x::Spdu&, SimTime) override { ++rx; }
  v2x::Position pos;
  int rx = 0;
};

TEST(V2xFault, RadioLossBurstBlacksOutReceivers) {
  Scheduler sched;
  v2x::V2xMedium medium(sched, 300.0, 0.0, 1);
  StubRadio tx("tx", {0, 0}), rx("rx", {10, 0}), sniffer("mon", {50, 0});
  medium.attach(&tx);
  medium.attach(&rx);
  medium.attach_monitor(&sniffer);
  FaultPlan plan(sched, 11);
  medium.set_fault_port(&plan.port("v2x"));
  plan.window(SimTime::from_ms(5), SimTime::from_ms(10),
              {"v2x", FaultKind::kRadioLoss});

  sched.schedule_at(SimTime::from_ms(7),
                    [&] { medium.broadcast(&tx, v2x::Spdu{}); });
  sched.schedule_at(SimTime::from_ms(30),
                    [&] { medium.broadcast(&tx, v2x::Spdu{}); });
  sched.run();
  EXPECT_EQ(rx.rx, 1);  // only the post-burst broadcast arrives
  EXPECT_EQ(sniffer.rx, 2);  // monitors are unaffected by the fault plane
  EXPECT_EQ(medium.lost_fault(), 1u);
  EXPECT_EQ(medium.delivered(), 1u);
  EXPECT_EQ(plan.unrecovered(), 0u);  // radio-loss bursts auto-recover
}

// ---------------------------------------------------------------------------
// Gateway graceful degradation

struct GatewayRig {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus body{sched, "can.body", 500'000, 0, t};
  ivn::CanBus chassis{sched, "can.chassis", 500'000, 0, t};
  gateway::SecurityGateway gw{
      sched, "gw", gateway::SecurityGateway::kDefaultProcessingDelay, t};
  TestCanNode sender{"sender"};
  TestCanNode receiver{"receiver"};

  GatewayRig() {
    gw.add_domain("body", &body);
    gw.add_domain("chassis", &chassis);
    body.attach(&sender);
    chassis.attach(&receiver);
  }
};

TEST(GatewayDegraded, ModeEscalatesAndStepsDown) {
  GatewayRig rig;
  gateway::DegradedModeConfig cfg;
  cfg.window = SimTime::from_ms(10);
  cfg.degrade_threshold = 5;
  cfg.limp_threshold = 15;
  rig.gw.enable_degraded_mode(cfg);

  rig.sched.schedule_at(SimTime::from_ms(1),
                        [&] { rig.gw.report_domain_fault("body", 6); });
  rig.sched.run_until(SimTime::from_ms(10));
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kDegraded);

  rig.sched.schedule_at(SimTime::from_ms(11),
                        [&] { rig.gw.report_domain_fault("body", 20); });
  rig.sched.run_until(SimTime::from_ms(20));
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kLimpHome);

  // Two calm windows step down one level at a time: limp -> degraded ->
  // normal, never skipping straight to normal.
  rig.sched.run_until(SimTime::from_ms(40));
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kDegraded);
  rig.sched.run_until(SimTime::from_ms(60));
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kNormal);
  EXPECT_EQ(rig.gw.mode("chassis"), gateway::GatewayMode::kNormal);

  const std::uint64_t degraded = seq_of(rig.t, "gw", "mode_degraded");
  const std::uint64_t limp = seq_of(rig.t, "gw", "mode_limp_home");
  const std::uint64_t normal = seq_of(rig.t, "gw", "mode_normal");
  ASSERT_NE(degraded, 0u);
  ASSERT_NE(limp, 0u);
  ASSERT_NE(normal, 0u);
  EXPECT_LT(degraded, limp);
  EXPECT_LT(limp, normal);
}

TEST(GatewayDegraded, ShedsOnlyNonCriticalRoutes) {
  GatewayRig rig;
  rig.gw.add_route(0x100, "body", "chassis", /*safety_critical=*/true);
  rig.gw.add_route(0x200, "body", "chassis", /*safety_critical=*/false);
  gateway::DegradedModeConfig cfg;
  cfg.window = SimTime::from_ms(10);
  cfg.degrade_threshold = 5;
  cfg.limp_threshold = 1000;
  rig.gw.enable_degraded_mode(cfg);
  rig.sched.schedule_at(SimTime::from_ms(1),
                        [&] { rig.gw.report_domain_fault("body", 6); });
  rig.sched.run_until(SimTime::from_ms(10));
  ASSERT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kDegraded);

  rig.sched.schedule_at(SimTime::from_ms(12), [&] {
    rig.body.send(&rig.sender, make_frame(0x100));
    rig.body.send(&rig.sender, make_frame(0x200));
  });
  // Keep feeding faults so the mode holds through the forwarding delay.
  rig.sched.schedule_at(SimTime::from_ms(18),
                        [&] { rig.gw.report_domain_fault("body", 6); });
  rig.sched.run_until(SimTime::from_ms(25));

  ASSERT_EQ(rig.receiver.rx.size(), 1u);  // critical route survives
  EXPECT_EQ(rig.receiver.rx[0].id, 0x100u);
  const gateway::GatewayStats s = rig.gw.stats();
  EXPECT_EQ(s.dropped_degraded, 1u);  // non-critical route shed
  EXPECT_EQ(s.forwarded, 1u);
}

TEST(GatewayDegraded, LinkPartitionViaFaultPlanHandler) {
  GatewayRig rig;
  rig.gw.add_route(0x100, "body", "chassis", true);
  FaultPlan plan(rig.sched, 13, rig.t);
  // Handler integration: the partition window toggles the gateway link, and
  // the gateway reports recovery back to the plan when the link returns.
  plan.on("gw.body", FaultKind::kPartition,
          [&](const FaultSpec&, bool active) {
            rig.gw.set_link_up("body", !active);
            if (!active) plan.notify_recovered("gw.body");
          });
  plan.window(SimTime::from_ms(5), SimTime::from_ms(20),
              {"gw.body", FaultKind::kPartition});

  rig.sched.schedule_at(SimTime::from_ms(10),
                        [&] { rig.body.send(&rig.sender, make_frame(0x100)); });
  rig.sched.schedule_at(SimTime::from_ms(30),
                        [&] { rig.body.send(&rig.sender, make_frame(0x100)); });
  rig.sched.run();

  ASSERT_EQ(rig.receiver.rx.size(), 1u);  // only the post-partition frame
  EXPECT_EQ(rig.gw.stats().dropped_link_down, 1u);
  EXPECT_TRUE(rig.gw.link_up("body"));
  EXPECT_EQ(plan.unrecovered(), 0u);

  const std::uint64_t inject = seq_of(rig.t, "faultplan", "inject");
  const std::uint64_t down = seq_of(rig.t, "gw", "link_down");
  const std::uint64_t drop = seq_of(rig.t, "gw", "drop");
  const std::uint64_t up = seq_of(rig.t, "gw", "link_up");
  const std::uint64_t recovered = seq_of(rig.t, "faultplan", "recovered");
  ASSERT_NE(inject, 0u);
  ASSERT_NE(down, 0u);
  ASSERT_NE(drop, 0u);
  ASSERT_NE(up, 0u);
  ASSERT_NE(recovered, 0u);
  EXPECT_LT(inject, down);
  EXPECT_LT(down, drop);
  EXPECT_LT(drop, up);
  EXPECT_LT(up, recovered);
}

// An adversary destroys every body frame, so the one queued frame is
// retransmitted until the sender goes bus-off. TEC rises by 8 per error:
// 32 errored frames, then one bus-off, for 32 * 1 + 1 * 10 = 42 faults early
// in a 10 ms window. That degrades (threshold 5) but stays under limp-home
// (default 60).
void jam_body_bus(GatewayRig& rig) {
  gateway::DegradedModeConfig cfg;
  cfg.window = SimTime::from_ms(10);
  cfg.degrade_threshold = 5;
  rig.gw.enable_degraded_mode(cfg);
  rig.gw.enable_bus_fault_watch();
  rig.body.set_error_injector(
      [](const ivn::CanFrame&, const ivn::CanNode&) { return true; });
  rig.sched.schedule_at(SimTime::from_ms(1),
                        [&] { rig.body.send(&rig.sender, make_frame(0x100)); });
}

TEST(GatewayDegraded, BusFaultWatchDrivesDegradation) {
  GatewayRig rig;
  jam_body_bus(rig);
  rig.sched.run_until(SimTime::from_ms(9));
  ASSERT_EQ(rig.body.stats().frames_error, 32u);
  ASSERT_EQ(rig.body.bus_offs(), 1u);
  // A sync mid-window carries the pending bus faults, bus-off weighing 10.
  EXPECT_EQ(rig.gw.export_state().domains.at("body").fault_count, 42u);
  EXPECT_EQ(rig.gw.export_state().domains.at("chassis").fault_count, 0u);
  rig.sched.run_until(SimTime::from_ms(10));
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kDegraded);
  EXPECT_EQ(rig.gw.mode("chassis"), gateway::GatewayMode::kNormal);
  // The window closed: its faults were consumed by the tick.
  EXPECT_EQ(rig.gw.export_state().domains.at("body").fault_count, 0u);
}

TEST(GatewayDegraded, BusFaultWatchWorksWithTracingDisabled) {
  GatewayRig rig;
  rig.t.bus->set_enabled(false);
  jam_body_bus(rig);
  rig.sched.run_until(SimTime::from_ms(10));
  EXPECT_EQ(rig.t.bus->total_recorded(), 0u);
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kDegraded);
}

TEST(GatewayDegraded, ForgedTraceEventsDoNotDegrade) {
  GatewayRig rig;
  gateway::DegradedModeConfig cfg;
  cfg.window = SimTime::from_ms(10);
  cfg.degrade_threshold = 5;
  rig.gw.enable_degraded_mode(cfg);
  rig.gw.enable_bus_fault_watch();
  // Events that claim errors on the watched bus, with no error on the wire.
  rig.sched.schedule_at(SimTime::from_ms(1), [&] {
    for (int i = 0; i < 6; ++i) {
      rig.t.bus->record(rig.sched.now(), "can.body", "tx_error", "sender");
      rig.t.bus->record(rig.sched.now(), "can.body", "bus_off", "sender");
    }
  });
  rig.sched.run_until(SimTime::from_ms(10));
  EXPECT_EQ(rig.gw.mode("body"), gateway::GatewayMode::kNormal);
}

// ---------------------------------------------------------------------------
// OTA retry / resume

struct RetryRig {
  Scheduler sched;
  Telemetry t;
  crypto::Drbg rng{777u};
  ota::Repository director{rng, "director", SimTime::from_s(3600)};
  ota::Repository images{rng, "image-repo", SimTime::from_s(3600)};
  Bytes fw = Bytes(65536, 0xF2);
  FaultPlan plan{sched, 21, t};

  RetryRig() {
    director.add_target("brake-fw", fw, 2, "brake-hw");
    images.add_target("brake-fw", fw, 2, "brake-hw");
    director.publish(SimTime::from_s(1));
    images.publish(SimTime::from_s(1));
    director.set_fault_port(&plan.port("ota.director"));
    images.set_fault_port(&plan.port("ota.image"));
  }

  ota::FullVerificationClient make_client() {
    ota::FullVerificationClient c("primary", director.trusted_root(),
                                  images.trusted_root(), t);
    return c;
  }

  // Outage on both mirrors (the client falls back to the director for bytes,
  // so a believable outage takes out both).
  void outage(SimTime at, SimTime dur) {
    plan.window(at, dur, {"ota.director", FaultKind::kOutage});
    plan.window(at, dur, {"ota.image", FaultKind::kOutage});
  }
};

TEST(OtaRetry, ResumesDownloadAfterOutage) {
  RetryRig rig;
  ota::FullVerificationClient client = rig.make_client();
  ota::FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = SimTime::from_ms(2);
  policy.multiplier = 2.0;
  policy.chunk_bytes = 8192;
  policy.link_bytes_per_sec = 1'000'000;  // 8.192ms per chunk

  const SimTime start = SimTime::from_s(10);
  // Chunks complete at start + k*8.192ms; the outage eats the mid-transfer
  // fetch, leaving a partial buffer to resume from.
  rig.outage(start + SimTime::from_ms(20), SimTime::from_ms(20));

  std::optional<ota::FullVerificationClient::RetryOutcome> result;
  rig.sched.schedule_at(start, [&] {
    client.fetch_and_verify_with_retry(
        rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1, policy,
        [&](const ota::FullVerificationClient::RetryOutcome& ro) {
          result = ro;
          rig.plan.notify_recovered("ota.director");
          rig.plan.notify_recovered("ota.image");
        });
  });
  rig.sched.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome.error, ota::OtaError::kOk);
  EXPECT_EQ(result->outcome.image, rig.fw);
  EXPECT_GT(result->attempts, 1);
  EXPECT_GE(result->resumed_from, 8192u);  // partial download survived
  EXPECT_LT(result->resumed_from, rig.fw.size());
  EXPECT_EQ(rig.plan.unrecovered(), 0u);

  // Degradation -> recovery chain on the shared timeline.
  const std::uint64_t inject = seq_of(rig.t, "faultplan", "inject");
  const std::uint64_t interrupted = seq_of(rig.t, "ota.primary", "fetch_interrupted");
  const std::uint64_t backoff = seq_of(rig.t, "ota.primary", "backoff");
  const std::uint64_t resume = seq_of(rig.t, "ota.primary", "fetch_resume");
  const std::uint64_t ok = seq_of(rig.t, "ota.primary", "verify_ok");
  ASSERT_NE(inject, 0u);
  ASSERT_NE(interrupted, 0u);
  ASSERT_NE(backoff, 0u);
  ASSERT_NE(resume, 0u);
  ASSERT_NE(ok, 0u);
  EXPECT_LT(inject, interrupted);
  EXPECT_LT(interrupted, backoff);
  EXPECT_LT(backoff, resume);
  EXPECT_LT(resume, ok);
}

TEST(OtaRetry, ExhaustsRetriesUnderPermanentOutage) {
  RetryRig rig;
  ota::FullVerificationClient client = rig.make_client();
  ota::FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = SimTime::from_ms(1);

  const SimTime start = SimTime::from_s(10);
  rig.outage(start, SimTime::from_s(100));

  std::optional<ota::FullVerificationClient::RetryOutcome> result;
  rig.sched.schedule_at(start + SimTime::from_ms(1), [&] {
    client.fetch_and_verify_with_retry(
        rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1, policy,
        [&](const ota::FullVerificationClient::RetryOutcome& ro) { result = ro; });
  });
  rig.sched.run_until(start + SimTime::from_s(1));

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome.error, ota::OtaError::kRetriesExhausted);
  EXPECT_EQ(result->attempts, 3);
  EXPECT_EQ(rig.t.bus->count("ota.primary", "retries_exhausted"), 1u);
  EXPECT_EQ(client.verify_fail(), 1u);
}

TEST(OtaRetry, JitteredBackoffDeterministicAndMetered) {
  // Jitter decorrelates fleet-wide retry storms but must stay
  // bit-deterministic per seed, and the backoff schedule must land in the
  // metrics registry (counters + histogram) for the E16 overhead report.
  struct RunResult {
    SimTime finished_at;
    std::uint64_t backoffs = 0;
    std::uint64_t backoff_ns = 0;
  };
  const auto run_once = [](double jitter, std::uint64_t rng_seed) {
    RetryRig rig;
    util::Rng jrng(rng_seed);
    ota::FullVerificationClient client = rig.make_client();
    ota::FullVerificationClient::RetryPolicy policy;
    policy.max_attempts = 10;
    policy.initial_backoff = SimTime::from_ms(4);
    policy.multiplier = 2.0;
    policy.chunk_bytes = 8192;
    policy.jitter = jitter;
    policy.jitter_rng = jitter > 0 ? &jrng : nullptr;

    const SimTime start = SimTime::from_s(10);
    rig.outage(start + SimTime::from_ms(20), SimTime::from_ms(40));
    RunResult res;
    rig.sched.schedule_at(start, [&] {
      client.fetch_and_verify_with_retry(
          rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1,
          policy, [&](const ota::FullVerificationClient::RetryOutcome& ro) {
            EXPECT_EQ(ro.outcome.error, ota::OtaError::kOk);
            res.finished_at = ro.finished_at;
            rig.plan.notify_recovered("ota.director");
            rig.plan.notify_recovered("ota.image");
          });
    });
    rig.sched.run();
    res.backoffs = rig.t.metrics->counter_value("ota.primary.backoffs");
    res.backoff_ns = rig.t.metrics->counter_value("ota.primary.backoff_ns_total");
    // The registry counter and the trace stream agree event for event.
    EXPECT_EQ(res.backoffs, rig.t.bus->count("ota.primary", "backoff"));
    return res;
  };

  const RunResult a = run_once(0.5, 99);
  const RunResult b = run_once(0.5, 99);
  const RunResult plain = run_once(0.0, 99);
  // Same seed -> bit-identical schedule; jitter perturbs the plain one.
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.backoff_ns, b.backoff_ns);
  EXPECT_EQ(a.backoffs, b.backoffs);
  EXPECT_GT(a.backoffs, 0u);
  EXPECT_GT(plain.backoffs, 0u);
  EXPECT_NE(a.backoff_ns, plain.backoff_ns);
}

TEST(OtaRetry, MetadataFailureIsFinalNotRetried) {
  RetryRig rig;
  ota::FullVerificationClient client = rig.make_client();
  ota::FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = SimTime::from_ms(1);

  // Repos disagree on the target -> metadata error, no transport retry.
  rig.images.add_target("brake-fw", Bytes(1024, 0xEE), 2, "brake-hw");
  rig.images.publish(SimTime::from_s(2));

  std::optional<ota::FullVerificationClient::RetryOutcome> result;
  rig.sched.schedule_at(SimTime::from_s(10), [&] {
    client.fetch_and_verify_with_retry(
        rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1, policy,
        [&](const ota::FullVerificationClient::RetryOutcome& ro) { result = ro; });
  });
  rig.sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->outcome.error, ota::OtaError::kOk);
  EXPECT_NE(result->outcome.error, ota::OtaError::kRetriesExhausted);
  EXPECT_EQ(result->attempts, 1);  // a retry cannot fix a bad signature
}

}  // namespace
}  // namespace aseck
