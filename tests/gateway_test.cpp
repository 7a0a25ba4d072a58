// Tests for the security gateway: routing, firewall, rate limiting,
// quarantine, and latency overhead.

#include <gtest/gtest.h>

#include "ecu/ecu.hpp"
#include "gateway/gateway.hpp"

namespace aseck::gateway {
namespace {

using ecu::Ecu;
using util::Bytes;

struct Fixture {
  sim::Scheduler sched;
  ivn::CanBus powertrain{sched, "powertrain", 500000};
  ivn::CanBus infotainment{sched, "infotainment", 500000};
  sim::Telemetry t;
  SecurityGateway gw{sched, "cgw", SecurityGateway::kDefaultProcessingDelay, t};
  Ecu engine{sched, "engine", 1};
  Ecu radio{sched, "radio", 2};

  Fixture() {
    gw.add_domain("powertrain", &powertrain);
    gw.add_domain("infotainment", &infotainment);
    provision(engine);
    provision(radio);
    engine.attach_to(&powertrain);
    radio.attach_to(&infotainment);
    engine.boot();
    radio.boot();
  }

  static void provision(Ecu& e) {
    crypto::Block k{};
    e.provision(ecu::FirmwareImage{e.name() + "-fw", 1, Bytes(64, 1)}, k, k, k);
  }
};

TEST(Gateway, RoutesAcrossDomains) {
  Fixture f;
  f.gw.add_route(0x100, "powertrain", "infotainment");
  int got = 0;
  f.radio.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.engine.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.gw.stats().forwarded, 1u);
}

TEST(Gateway, NoRouteMeansIsolation) {
  Fixture f;
  int got = 0;
  f.radio.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.engine.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.gw.stats().dropped_no_route, 1u);
}

TEST(Gateway, RoutesAreDirectional) {
  Fixture f;
  f.gw.add_route(0x100, "powertrain", "infotainment");
  int engine_got = 0;
  f.engine.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++engine_got; });
  // Same id from the infotainment side must NOT reach powertrain.
  f.radio.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(engine_got, 0);
  EXPECT_EQ(f.gw.stats().dropped_no_route, 1u);
}

TEST(Gateway, FirewallDenyRuleBlocks) {
  Fixture f;
  f.gw.add_route(0x200, "infotainment", "powertrain");
  FirewallRule deny;
  deny.from_domain = "infotainment";
  deny.to_domain = "powertrain";
  deny.id_min = 0x000;
  deny.id_max = 0x6FF;
  deny.allow = false;
  f.gw.add_rule(deny);
  int got = 0;
  f.engine.subscribe(0x200, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.radio.send_frame(0x200, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.gw.stats().dropped_firewall, 1u);
}

TEST(Gateway, FirstMatchingRuleWins) {
  Fixture f;
  f.gw.add_route(0x200, "infotainment", "powertrain");
  FirewallRule allow_diag;
  allow_diag.id_min = 0x200;
  allow_diag.id_max = 0x200;
  allow_diag.allow = true;
  FirewallRule deny_all;
  deny_all.allow = false;
  f.gw.add_rule(allow_diag);
  f.gw.add_rule(deny_all);
  int got = 0;
  f.engine.subscribe(0x200, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.radio.send_frame(0x200, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Gateway, MaxDlcRule) {
  Fixture f;
  f.gw.add_route(0x300, "infotainment", "powertrain");
  FirewallRule small_only;
  small_only.id_min = 0x300;
  small_only.id_max = 0x300;
  small_only.allow = true;
  small_only.max_dlc = 2;
  f.gw.add_rule(small_only);
  int got = 0;
  f.engine.subscribe(0x300, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.radio.send_frame(0x300, Bytes{0x01, 0x02});
  f.radio.send_frame(0x300, Bytes{0x01, 0x02, 0x03});  // too big
  f.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.gw.stats().dropped_firewall, 1u);
}

TEST(Gateway, RateLimitDropsFlood) {
  Fixture f;
  f.gw.add_route(0x400, "infotainment", "powertrain");
  f.gw.set_rate_limit("infotainment", 0x400, RateLimit{10.0, 5.0});
  int got = 0;
  f.engine.subscribe(0x400, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  for (int i = 0; i < 100; ++i) f.radio.send_frame(0x400, Bytes{0x01});
  f.sched.run();
  // Burst of 5 plus a handful of refills during the bus drain (~13ms).
  EXPECT_LE(got, 8);
  EXPECT_GE(got, 5);
  EXPECT_GE(f.gw.stats().dropped_rate, 90u);
}

TEST(Gateway, DomainWideRateLimit) {
  Fixture f;
  f.gw.add_route(0x500, "infotainment", "powertrain");
  f.gw.add_route(0x501, "infotainment", "powertrain");
  f.gw.set_domain_rate_limit("infotainment", RateLimit{5.0, 2.0});
  int got = 0;
  f.engine.subscribe(0x500, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.engine.subscribe(0x501, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  for (int i = 0; i < 20; ++i) {
    f.radio.send_frame(0x500, Bytes{0x01});
    f.radio.send_frame(0x501, Bytes{0x01});
  }
  f.sched.run();
  // Each flow gets its own bucket from the domain default: 2 burst each.
  EXPECT_LE(got, 6);
  EXPECT_GT(f.gw.stats().dropped_rate, 30u);
}

TEST(Gateway, QuarantineStopsCompromisedDomain) {
  Fixture f;
  f.gw.add_route(0x100, "infotainment", "powertrain");
  int got = 0;
  f.engine.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.radio.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 1);
  f.gw.quarantine("infotainment");
  EXPECT_TRUE(f.gw.quarantined("infotainment"));
  f.radio.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 1);  // blocked
  EXPECT_EQ(f.gw.stats().dropped_quarantine, 1u);
  f.gw.quarantine("infotainment", false);
  f.radio.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 2);
}

TEST(Gateway, QuarantinedDestinationAlsoBlocked) {
  Fixture f;
  f.gw.add_route(0x100, "powertrain", "infotainment");
  f.gw.quarantine("infotainment");
  int got = 0;
  f.radio.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.engine.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(got, 0);
}

TEST(Gateway, ProcessingDelayAddsLatency) {
  Fixture f;
  f.gw.set_processing_delay(sim::SimTime::from_us(500));
  f.gw.add_route(0x100, "powertrain", "infotainment");
  sim::SimTime arrival = sim::SimTime::zero();
  f.radio.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime at) {
    arrival = at;
  });
  f.engine.send_frame(0x100, Bytes{0x01});
  f.sched.run();
  // Two bus serializations (~100us each at 500kbit) + 500us gateway.
  EXPECT_GT(arrival.us(), 600.0);
}

TEST(Gateway, DropObserverInvoked) {
  Fixture f;
  std::vector<DropReason> reasons;
  f.gw.set_drop_observer([&](const std::string&, const ivn::CanFrame&,
                             DropReason r) { reasons.push_back(r); });
  f.engine.send_frame(0x123, Bytes{0x01});  // no route
  f.sched.run();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], DropReason::kNoRoute);
}

TEST(Gateway, RejectsBadConfig) {
  sim::Scheduler sched;
  ivn::CanBus bus(sched, "a", 500000);
  SecurityGateway gw(sched, "gw");
  gw.add_domain("a", &bus);
  EXPECT_THROW(gw.add_domain("a", &bus), std::invalid_argument);
  EXPECT_THROW(gw.add_route(1, "a", "missing"), std::invalid_argument);
  EXPECT_THROW(gw.quarantine("missing"), std::out_of_range);
}

TEST(Gateway, MulticastRoute) {
  sim::Scheduler sched;
  ivn::CanBus a(sched, "a", 500000), b(sched, "b", 500000), c(sched, "c", 500000);
  SecurityGateway gw(sched, "gw");
  gw.add_domain("a", &a);
  gw.add_domain("b", &b);
  gw.add_domain("c", &c);
  gw.add_route(0x100, "a", "b");
  gw.add_route(0x100, "a", "c");
  Ecu src(sched, "src", 1), rx_b(sched, "rx_b", 2), rx_c(sched, "rx_c", 3);
  crypto::Block k{};
  src.provision(ecu::FirmwareImage{"f", 1, Bytes(16, 1)}, k, k, k);
  rx_b.provision(ecu::FirmwareImage{"f", 1, Bytes(16, 1)}, k, k, k);
  rx_c.provision(ecu::FirmwareImage{"f", 1, Bytes(16, 1)}, k, k, k);
  src.attach_to(&a);
  rx_b.attach_to(&b);
  rx_c.attach_to(&c);
  src.boot();
  rx_b.boot();
  rx_c.boot();
  int got = 0;
  rx_b.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  rx_c.subscribe(0x100, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  src.send_frame(0x100, Bytes{1});
  sched.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(gw.stats().forwarded, 2u);
}

TEST(Gateway, LimpHomeRecoveryRestoresShedRoutes) {
  // The recovery direction of graceful degradation: a fault burst drives the
  // domain straight to limp-home, calm health windows then step it down one
  // level at a time, and a previously shed non-critical route carries
  // traffic again only once the domain is back to normal. The whole walk
  // must appear ordered on the trace bus:
  // mode_limp_home < mode_degraded < mode_normal < forward.
  Fixture f;
  const sim::Telemetry& t = f.t;
  f.gw.add_route(0x200, "powertrain", "infotainment", /*safety_critical=*/false);
  DegradedModeConfig cfg;
  cfg.window = sim::SimTime::from_ms(10);
  cfg.degrade_threshold = 5;
  cfg.limp_threshold = 15;
  f.gw.enable_degraded_mode(cfg);

  int got = 0;
  f.radio.subscribe(0x200, [&](const ivn::CanFrame&, sim::SimTime) { ++got; });
  f.sched.schedule_at(sim::SimTime::from_ms(1),
                      [&] { f.gw.report_domain_fault("powertrain", 20); });
  // Shed while limp-home...
  f.sched.schedule_at(sim::SimTime::from_ms(12),
                      [&] { f.engine.send_frame(0x200, Bytes{0x01}); });
  // ...forwarded again after limp -> degraded -> normal (2 calm windows per
  // step: normal from t = 50 ms).
  f.sched.schedule_at(sim::SimTime::from_ms(55),
                      [&] { f.engine.send_frame(0x200, Bytes{0x02}); });
  f.sched.run_until(sim::SimTime::from_ms(100));

  EXPECT_EQ(f.gw.mode("powertrain"), GatewayMode::kNormal);
  EXPECT_EQ(got, 1);  // only the post-recovery frame made it across
  EXPECT_EQ(f.gw.stats().dropped_degraded, 1u);
  EXPECT_EQ(f.gw.stats().forwarded, 1u);

  const auto seq = [&](std::string_view kind) -> std::uint64_t {
    const sim::TraceEvent* e = t.bus->find_first("cgw", kind);
    return e ? e->seq : 0;
  };
  const std::uint64_t limp = seq("mode_limp_home");
  const std::uint64_t degraded = seq("mode_degraded");
  const std::uint64_t normal = seq("mode_normal");
  const std::uint64_t forward = seq("forward");
  ASSERT_NE(limp, 0u);
  ASSERT_NE(degraded, 0u);
  ASSERT_NE(normal, 0u);
  ASSERT_NE(forward, 0u);
  EXPECT_LT(limp, degraded);
  EXPECT_LT(degraded, normal);
  EXPECT_LT(normal, forward);
}

}  // namespace
}  // namespace aseck::gateway
