// Tests for the unified telemetry core: TraceBus interning / ring buffer /
// subscribers, MetricsRegistry instruments and JSON export, TraceScope
// binding, and the cross-layer causal timeline (CAN spoof -> gateway drop ->
// IDS alert on one shared bus).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "ecu/ecu.hpp"
#include "gateway/gateway.hpp"
#include "gateway/redundant.hpp"
#include "ids/detectors.hpp"
#include "ivn/ethernet.hpp"
#include "ivn/flexray.hpp"
#include "ivn/lin.hpp"
#include "ivn/someip.hpp"
#include "ivn/uds.hpp"
#include "sim/telemetry.hpp"

namespace aseck::sim {
namespace {

using util::SimTime;

TEST(TraceBus, InterningIsIdempotentAndStable) {
  TraceBus bus;
  const TraceId a = bus.intern("can0");
  const TraceId b = bus.intern("tx");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(bus.intern("can0"), a);  // same spelling -> same id
  EXPECT_EQ(bus.lookup("can0"), a);
  EXPECT_EQ(bus.lookup("never-seen"), 0u);
  EXPECT_EQ(bus.name(a), "can0");
  EXPECT_EQ(bus.name(0), "");
  EXPECT_EQ(bus.interned(), 2u);
  EXPECT_EQ(bus.intern(""), 0u);  // empty stays the reserved id
}

TEST(TraceBus, RecordsWithMonotonicSeqAndQueries) {
  TraceBus bus;
  bus.record(SimTime::from_us(1), "can0", "tx", "id=100");
  bus.record(SimTime::from_us(2), "can0", "tx_error");
  bus.record(SimTime::from_us(3), "cgw", "drop", "no_route");
  ASSERT_EQ(bus.size(), 3u);
  EXPECT_LT(bus.event(0).seq, bus.event(1).seq);
  EXPECT_LT(bus.event(1).seq, bus.event(2).seq);
  EXPECT_EQ(bus.count("can0"), 2u);
  EXPECT_EQ(bus.count("can0", "tx"), 1u);
  EXPECT_EQ(bus.count("", "drop"), 1u);
  EXPECT_EQ(bus.count("lin0"), 0u);
  const TraceEvent* e = bus.find_first("cgw");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->detail, "no_route");
  EXPECT_EQ(bus.total_recorded(), 3u);
}

TEST(TraceBus, DisabledBusRecordsNothing) {
  TraceBus bus;
  bus.set_enabled(false);
  bus.record(SimTime::from_us(1), "c", "k");
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  bus.set_enabled(true);
  bus.record(SimTime::from_us(2), "c", "k");
  EXPECT_EQ(bus.size(), 1u);
}

TEST(TraceBus, RingBufferKeepsNewestAndCountsEvictions) {
  TraceBus bus;
  bus.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    bus.record(SimTime::from_us(static_cast<std::uint64_t>(i)), "c", "k",
               "n=" + std::to_string(i));
  }
  ASSERT_EQ(bus.size(), 4u);
  EXPECT_EQ(bus.evicted(), 6u);
  EXPECT_EQ(bus.total_recorded(), 10u);
  // Oldest-first window over the newest four records.
  EXPECT_EQ(bus.event(0).detail, "n=6");
  EXPECT_EQ(bus.event(3).detail, "n=9");
  // Seq stays monotonic across the wrap.
  EXPECT_LT(bus.event(0).seq, bus.event(3).seq);
}

TEST(TraceBus, ShrinkingCapacityEvictsOldest) {
  TraceBus bus;
  for (int i = 0; i < 6; ++i) {
    bus.record(SimTime::zero(), "c", "k", std::to_string(i));
  }
  bus.set_capacity(2);
  ASSERT_EQ(bus.size(), 2u);
  EXPECT_EQ(bus.event(0).detail, "4");
  EXPECT_EQ(bus.event(1).detail, "5");
  EXPECT_EQ(bus.evicted(), 4u);
  // Growing back does not resurrect anything.
  bus.set_capacity(0);
  EXPECT_EQ(bus.size(), 2u);
}

TEST(TraceBus, SubscriberSeesEveryEventEvenInRingMode) {
  TraceBus bus;
  bus.set_capacity(2);
  std::vector<std::uint64_t> seen;
  const std::uint64_t token =
      bus.subscribe([&](const TraceEvent& e) { seen.push_back(e.seq); });
  for (int i = 0; i < 5; ++i) bus.record(SimTime::zero(), "c", "k");
  EXPECT_EQ(seen.size(), 5u);  // tap sees evicted events too
  EXPECT_EQ(bus.size(), 2u);
  bus.unsubscribe(token);
  bus.record(SimTime::zero(), "c", "k");
  EXPECT_EQ(seen.size(), 5u);  // unsubscribed: no more callbacks
}

TEST(TraceBus, TimelineFormatsFilteredOrderedLines) {
  TraceBus bus;
  bus.record(SimTime::from_us(1), "can0", "tx", "id=100");
  bus.record(SimTime::from_us(2), "cgw", "drop");
  const std::string all = bus.timeline();
  EXPECT_NE(all.find("can0 tx id=100"), std::string::npos);
  EXPECT_NE(all.find("cgw drop"), std::string::npos);
  EXPECT_LT(all.find("can0"), all.find("cgw"));  // causal order
  const std::string only_gw = bus.timeline("cgw");
  EXPECT_EQ(only_gw.find("can0"), std::string::npos);
  EXPECT_NE(only_gw.find("cgw drop"), std::string::npos);
}

TEST(TraceScope, PrivateBusByDefault) {
  TraceScope scope("can0");
  const std::shared_ptr<TraceBus> private_bus = scope.bus();
  const TraceId k = scope.kind("tx");
  scope.record(SimTime::from_us(1), k, "id=1");
  EXPECT_EQ(private_bus->count("can0", "tx"), 1u);

  // A second default scope gets its own plane, not the first one's.
  TraceScope other("can0");
  EXPECT_NE(other.bus(), private_bus);
  EXPECT_NE(&other.metrics(), &scope.metrics());
}

TEST(TraceScope, PrefixedInstrumentsLandOnItsPlane) {
  Telemetry shared;
  TraceScope scope("can0", "can.can0.", shared);
  Counter& c = scope.counter("frames_ok");
  c.inc(3);
  scope.histogram("lat_us", 0.0, 10.0, 5).record(2.0);
  EXPECT_EQ(&scope.metrics(), shared.metrics.get());
  EXPECT_EQ(&c, &shared.metrics->counter("can.can0.frames_ok"));
  EXPECT_EQ(shared.metrics->counter_value("can.can0.frames_ok"), 3u);
  ASSERT_NE(shared.metrics->find_histogram("can.can0.lat_us"), nullptr);
  EXPECT_EQ(shared.metrics->find_histogram("can.can0.lat_us")->count(), 1u);
  // Resolving again hands out the same instrument.
  EXPECT_EQ(&scope.counter("frames_ok"), &c);
}

TEST(TraceScope, LocalDisableGatesRecording) {
  Telemetry shared;
  TraceScope scope("v2x.car1", {}, shared);
  scope.set_enabled(false);
  EXPECT_FALSE(scope.enabled());
  scope.record(SimTime::zero(), "bsm_tx");
  EXPECT_EQ(shared.bus->size(), 0u);
  scope.set_enabled(true);
  scope.record(SimTime::zero(), "bsm_tx");
  EXPECT_EQ(shared.bus->size(), 1u);
}

TEST(Metrics, CountersAndGaugesHaveStableIdentity) {
  MetricsRegistry reg;
  Counter& c = reg.counter("can.can0.frames_ok");
  c.inc();
  c.inc(4);
  EXPECT_EQ(&reg.counter("can.can0.frames_ok"), &c);  // same instrument
  EXPECT_EQ(reg.counter_value("can.can0.frames_ok"), 5u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);

  Gauge& g = reg.gauge("bus.load");
  g.set(0.25);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(reg.find_gauge("bus.load")->value(), 0.5);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(Metrics, HistogramBucketsAndPercentiles) {
  MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("gw.latency_us", 0.0, 100.0, 10);
  EXPECT_EQ(&reg.histogram("gw.latency_us", 0.0, 1.0, 2), &h);  // layout fixed
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 99.5);
  EXPECT_NEAR(h.mean(), 50.0, 0.01);
  for (std::size_t b = 0; b < h.buckets(); ++b) {
    EXPECT_EQ(h.bucket_count(b), 10u);  // uniform fill, 10 per bucket
  }
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 1.0);
  // Clamping: out-of-range samples land in the edge buckets.
  h.record(-5.0);
  h.record(500.0);
  EXPECT_EQ(h.bucket_count(0), 11u);
  EXPECT_EQ(h.bucket_count(9), 11u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
}

TEST(Metrics, HistogramNanSampleIsCountedNotBinned) {
  // Regression: a NaN latency sample used to hit the UB size_t cast in the
  // bucketing path and corrupt min/max/sum. It must be counted separately.
  MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("nan.test", 0.0, 100.0, 10);
  h.record(10.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);

  // Regression: an infinite or >= 2^64 bucket index was cast to size_t
  // before the range clamp (UB). Such samples clamp to the edge buckets.
  const double inf = std::numeric_limits<double>::infinity();
  h.record(inf);
  h.record(-inf);
  h.record(1e300);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // -inf
  EXPECT_EQ(h.bucket_count(1), 1u);  // 10.0
  EXPECT_EQ(h.bucket_count(9), 2u);  // +inf, 1e300
  EXPECT_EQ(h.min(), -inf);
  EXPECT_EQ(h.max(), inf);

  // JSON has no NaN or infinity: the export writes null for them, so it
  // stays parseable.
  reg.gauge("inf.gauge").set(inf);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"inf.gauge\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":null,\"min\":null,\"max\":null,\"mean\":null"),
            std::string::npos)
      << json;
  for (const char* bad : {":nan", ":-nan", ":inf", ":-inf"}) {
    EXPECT_EQ(json.find(bad), std::string::npos) << json;
  }
}

TEST(Metrics, JsonExportIsDeterministicAndComplete) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("load").set(0.5);
  reg.histogram("lat", 0.0, 10.0, 2).record(3.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\":{\"a.count\":1,\"b.count\":2}"),
            std::string::npos);  // name-sorted
  EXPECT_NE(json.find("\"gauges\":{\"load\":0.5}"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Metrics, MergeFromFoldsCountersGaugesHistograms) {
  MetricsRegistry a, b;
  a.counter("shared.count").inc(3);
  b.counter("shared.count").inc(4);
  b.counter("only_b.count").inc(7);
  a.gauge("load").add(0.25);
  b.gauge("load").add(0.5);
  a.histogram("lat", 0.0, 10.0, 5).record(1.0);
  b.histogram("lat", 0.0, 10.0, 5).record(9.0);
  b.histogram("lat", 0.0, 10.0, 5).record(3.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter_value("shared.count"), 7u);
  EXPECT_EQ(a.counter_value("only_b.count"), 7u);
  EXPECT_DOUBLE_EQ(a.find_gauge("load")->value(), 0.75);
  LatencyHistogram& h = a.histogram("lat", 0.0, 10.0, 5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.sum(), 13.0);
  // b is untouched.
  EXPECT_EQ(b.counter_value("shared.count"), 4u);
}

TEST(Metrics, MergeRejectsHistogramLayoutMismatch) {
  MetricsRegistry a, b;
  a.histogram("lat", 0.0, 10.0, 5).record(1.0);
  b.histogram("lat", 0.0, 20.0, 5).record(1.0);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(Metrics, ShardedMergeJsonEqualsSingleRegistryJson) {
  // The sharded-world telemetry contract: recording the same samples into
  // k per-shard registries and merging them in ascending shard order must
  // export byte-identical JSON to recording everything into one registry.
  MetricsRegistry single;
  MetricsRegistry shards[3];
  auto record = [](MetricsRegistry& reg, int shard, int i) {
    reg.counter("city.rx").inc(static_cast<std::uint64_t>(i + 1));
    reg.gauge("load").add(0.125 * shard);
    reg.histogram("verify_us", 0.0, 1000.0, 16)
        .record(100.0 * shard + 10.0 * i);
  };
  for (int shard = 0; shard < 3; ++shard) {
    for (int i = 0; i < 5; ++i) {
      record(single, shard, i);
      record(shards[shard], shard, i);
    }
  }
  MetricsRegistry merged;
  for (int shard = 0; shard < 3; ++shard) merged.merge_from(shards[shard]);
  EXPECT_EQ(merged.to_json(), single.to_json());
}

TEST(Metrics, MergeFromEmptyAndIntoEmptyAreIdentities) {
  MetricsRegistry empty, filled, target;
  filled.counter("c").inc(2);
  filled.histogram("h", 0.0, 1.0, 2).record(0.5);
  const std::string before = filled.to_json();
  filled.merge_from(empty);
  EXPECT_EQ(filled.to_json(), before);
  target.merge_from(filled);
  EXPECT_EQ(target.to_json(), before);
}

// ---------------------------------------------------------------------------
// Cross-substrate integration

struct VehicleFixture {
  Scheduler sched;
  Telemetry telemetry;
  ivn::CanBus powertrain{sched, "powertrain", 500000, 0, telemetry};
  ivn::CanBus infotainment{sched, "infotainment", 500000, 0, telemetry};
  gateway::SecurityGateway gw{
      sched, "cgw", gateway::SecurityGateway::kDefaultProcessingDelay, telemetry};
  ecu::Ecu engine{sched, "engine", 1};
  ecu::Ecu radio{sched, "radio", 2};
  ids::IdsEnsemble ids = ids::make_default_ensemble(telemetry);

  VehicleFixture() {
    gw.add_domain("powertrain", &powertrain);
    gw.add_domain("infotainment", &infotainment);
    provision(engine);
    provision(radio);
    engine.attach_to(&powertrain);
    radio.attach_to(&infotainment);
    engine.boot();
    radio.boot();
  }

  static void provision(ecu::Ecu& e) {
    crypto::Block k{};
    e.provision(ecu::FirmwareImage{e.name() + "-fw", 1, util::Bytes(64, 1)}, k,
                k, k);
  }
};

TEST(CrossLayer, SpoofDropAlertIsOneCausallyOrderedTimeline) {
  VehicleFixture f;
  // The IDS taps the gateway's drop stream: every dropped frame is scored.
  f.gw.set_drop_observer([&](const std::string&, const ivn::CanFrame& frame,
                             gateway::DropReason) {
    f.ids.observe(frame, f.sched.now());
  });
  // A compromised radio spoofs a powertrain id with no route: CAN tx on the
  // infotainment bus -> gateway no-route drop -> IDS alert (unknown id).
  f.radio.send_frame(0x666, util::Bytes{0xde, 0xad});
  f.sched.run();

  TraceBus& bus = *f.telemetry.bus;
  const TraceEvent* tx = bus.find_first("infotainment", "tx");
  const TraceEvent* drop = bus.find_first("cgw", "drop");
  const TraceEvent* alert = bus.find_first("ids", "alert");
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(drop, nullptr);
  ASSERT_NE(alert, nullptr);
  // One stream, causally ordered: spoof happened-before drop happened-before
  // alert.
  EXPECT_LT(tx->seq, drop->seq);
  EXPECT_LT(drop->seq, alert->seq);
  EXPECT_LE(tx->at, drop->at);
  EXPECT_LE(drop->at, alert->at);

  // The shared registry holds all three substrates' counters.
  MetricsRegistry& m = *f.telemetry.metrics;
  EXPECT_EQ(m.counter_value("can.infotainment.frames_ok"), 1u);
  EXPECT_EQ(m.counter_value("gateway.cgw.dropped_no_route"), 1u);
  EXPECT_EQ(m.counter_value("ids.alerts"), 1u);

  // And the human-readable timeline shows the chain in order.
  const std::string t = bus.timeline();
  EXPECT_LT(t.find("infotainment tx"), t.find("cgw drop"));
  EXPECT_LT(t.find("cgw drop"), t.find("ids alert"));
}

TEST(CrossLayer, SubscriberTapsGatewayDropsLive) {
  VehicleFixture f;
  int taps = 0;
  const TraceId cgw = f.telemetry.bus->intern("cgw");
  const TraceId drop = f.telemetry.bus->intern("drop");
  f.telemetry.bus->subscribe([&](const TraceEvent& e) {
    if (e.component == cgw && e.kind == drop) ++taps;
  });
  f.radio.send_frame(0x666, util::Bytes{0x01});
  f.sched.run();
  EXPECT_EQ(taps, 1);
}

TEST(CrossLayer, EverySubstrateBindsOntoOneRegistry) {
  Scheduler sched;
  Telemetry t;

  ivn::CanBus can{sched, "can0", 500000, 0, t};
  ivn::LinMaster lin{sched, "lin0", 19200, t};
  ivn::FlexRayBus flexray{sched, "fr0", {}, t};
  ivn::EthernetSwitch eth{sched, "sw0", 100'000'000, SimTime::from_us(5), t};
  ivn::ServiceAcl acl;
  ivn::SomeIpServer someip{eth, "srv", ivn::mac_from_u64(1), &acl, t};
  ivn::UdsServer uds{{ivn::weak_xor_algorithm(0xC0FFEE)}, 7, t};
  gateway::SecurityGateway gw{
      sched, "cgw", gateway::SecurityGateway::kDefaultProcessingDelay, t};
  ids::IdsEnsemble ids = ids::make_default_ensemble(t);

  const std::string json = t.metrics->to_json();
  for (const char* key :
       {"can.can0.frames_ok", "lin.lin0.frames_ok", "flexray.fr0.static_frames",
        "ethernet.sw0.forwarded", "someip.srv.served", "uds.unlock_ok",
        "gateway.cgw.forwarded", "ids.alerts"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(t.metrics->counter_value("can.can0.frames_ok"), 0u);
}

TEST(CrossLayer, MovedIdsEnsembleStillCountsOnItsPlane) {
  // The factories return the ensemble by value, so its cached counters must
  // stay valid across a move.
  Telemetry t;
  ids::IdsEnsemble ids = ids::make_extended_ensemble(t);
  ids::IdsEnsemble moved = std::move(ids);
  const ivn::CanFrame frame{0x123, false, false, ivn::CanFormat::kClassic,
                            false, util::Bytes{1, 2}};
  moved.observe(frame, SimTime::from_ms(1));
  moved.observe(frame, SimTime::from_ms(2));
  EXPECT_EQ(t.metrics->counter_value("ids.observed"), 2u);
}

}  // namespace
}  // namespace aseck::sim
