// Tests for LIN, FlexRay, Ethernet switch, and SecOC.

#include <gtest/gtest.h>

#include <cmath>

#include "ivn/ethernet.hpp"
#include "ivn/flexray.hpp"
#include "ivn/lin.hpp"
#include "ivn/secoc.hpp"
#include "util/rng.hpp"

namespace aseck::ivn {
namespace {

// ---------------------------------------------------------------- LIN

class EchoSlave : public LinSlave {
 public:
  EchoSlave(std::uint8_t owned_id, util::Bytes payload)
      : id_(owned_id), payload_(std::move(payload)) {}
  std::optional<util::Bytes> respond(std::uint8_t id) override {
    if (id == id_) {
      ++polled;
      return payload_;
    }
    return std::nullopt;
  }
  void on_frame(const LinFrame& frame, SimTime) override {
    observed.push_back(frame);
  }
  int polled = 0;
  std::vector<LinFrame> observed;

 private:
  std::uint8_t id_;
  util::Bytes payload_;
};

TEST(Lin, ProtectedIdParity) {
  // Known PIDs: id 0x00 -> 0x80, id 0x01 -> 0xC1, id 0x3C -> 0x3C.
  EXPECT_EQ(lin_protected_id(0x00), 0x80);
  EXPECT_EQ(lin_protected_id(0x01), 0xC1);
  EXPECT_EQ(lin_protected_id(0x3C), 0x3C);
  // Parity bits ignore upper input bits.
  EXPECT_EQ(lin_protected_id(0x40), lin_protected_id(0x00));
}

TEST(Lin, ChecksumInvertedSum) {
  // Classic checksum over {0x02, 0x03} = ~(0x05) = 0xFA.
  EXPECT_EQ(lin_checksum(0, util::Bytes{0x02, 0x03}, false), 0xFA);
  // Enhanced includes PID; carry wraps.
  const std::uint8_t pid = lin_protected_id(0x10);
  const std::uint8_t cs = lin_checksum(pid, util::Bytes{0xFF, 0xFF}, true);
  std::uint32_t sum = pid;
  for (int i = 0; i < 2; ++i) {
    sum += 0xFF;
    if (sum >= 256) sum -= 255;
  }
  EXPECT_EQ(cs, static_cast<std::uint8_t>(~sum & 0xff));
}

TEST(Lin, ScheduleCyclesAndDelivers) {
  sim::Scheduler sched;
  LinMaster master(sched, "lin0");
  EchoSlave s1(0x10, {0x01});
  EchoSlave s2(0x11, {0x02, 0x03});
  master.attach(&s1);
  master.attach(&s2);
  master.set_schedule({{0x10, SimTime::from_ms(10)}, {0x11, SimTime::from_ms(10)}});
  master.start();
  sched.run_until(SimTime::from_ms(95));
  master.stop();
  sched.run();
  EXPECT_EQ(s1.polled, 5);  // slots at 0,20,40,60,80
  EXPECT_EQ(s2.polled, 5);
  EXPECT_EQ(master.frames_ok(), 10u);
  EXPECT_EQ(master.no_response(), 0u);
  EXPECT_FALSE(s1.observed.empty());  // heard the other slave's frames
}

TEST(Lin, NoResponderCounted) {
  sim::Scheduler sched;
  LinMaster master(sched, "lin0");
  EchoSlave s1(0x10, {0x01});
  master.attach(&s1);
  master.set_schedule({{0x22, SimTime::from_ms(10)}});
  master.start();
  sched.run_until(SimTime::from_ms(25));
  master.stop();
  sched.run();
  EXPECT_EQ(master.no_response(), 3u);
  EXPECT_THROW(LinMaster(sched, "x", 0), std::invalid_argument);
}

TEST(Lin, CorruptionDetectedByChecksum) {
  sim::Scheduler sched;
  LinMaster master(sched, "lin0");
  EchoSlave s1(0x10, {0xAA, 0xBB});
  EchoSlave s2(0x3F, {});
  master.attach(&s1);
  master.attach(&s2);
  master.set_schedule({{0x10, SimTime::from_ms(10)}});
  master.set_corruptor([](util::Bytes& data) {
    data[0] ^= 0xFF;
    return true;
  });
  master.start();
  sched.run_until(SimTime::from_ms(35));
  master.stop();
  sched.run();
  EXPECT_EQ(master.checksum_errors(), 4u);
  EXPECT_EQ(master.frames_ok(), 0u);
  EXPECT_TRUE(s2.observed.empty());  // corrupted frames are not delivered
}

// ---------------------------------------------------------------- FlexRay

class StaticSender : public FlexRayNode {
 public:
  explicit StaticSender(util::Bytes payload) : payload_(std::move(payload)) {}
  std::optional<util::Bytes> static_payload(std::uint16_t, std::uint8_t) override {
    ++asked;
    return send_null ? std::nullopt : std::optional<util::Bytes>(payload_);
  }
  void on_frame(const FlexRayFrame& f, SimTime at) override {
    rx.push_back(f);
    rx_at.push_back(at);
  }
  int asked = 0;
  bool send_null = false;
  std::vector<FlexRayFrame> rx;
  std::vector<SimTime> rx_at;

 private:
  util::Bytes payload_;
};

TEST(FlexRay, StaticSlotsDeterministicTiming) {
  sim::Scheduler sched;
  FlexRayConfig cfg;
  cfg.static_slots = 4;
  cfg.dynamic_minislots = 10;
  FlexRayBus bus(sched, "fr0", cfg);
  StaticSender steering({0x01});
  StaticSender braking({0x02});
  bus.assign_static_slot(1, &steering);
  bus.assign_static_slot(3, &braking);
  bus.start();
  sched.run_until(cfg.cycle_length());
  bus.stop();
  sched.run();
  // steering hears braking's slot-3 frame at slot offset 2*50us each cycle.
  ASSERT_FALSE(steering.rx.empty());
  EXPECT_EQ(steering.rx[0].slot_id, 3);
  EXPECT_EQ(steering.rx_at[0], FlexRayConfig::kStaticSlotLen * 2);
  ASSERT_FALSE(braking.rx.empty());
  EXPECT_EQ(braking.rx[0].slot_id, 1);
  EXPECT_EQ(braking.rx_at[0], SimTime::zero());
}

TEST(FlexRay, SlotOwnershipExclusive) {
  sim::Scheduler sched;
  FlexRayBus bus(sched, "fr0");
  StaticSender a({}), b({});
  bus.assign_static_slot(1, &a);
  EXPECT_THROW(bus.assign_static_slot(1, &b), std::invalid_argument);
  EXPECT_THROW(bus.assign_static_slot(0, &b), std::invalid_argument);
  EXPECT_THROW(bus.assign_static_slot(999, &b), std::invalid_argument);
}

TEST(FlexRay, NullFramesCounted) {
  sim::Scheduler sched;
  FlexRayConfig cfg;
  cfg.static_slots = 2;
  FlexRayBus bus(sched, "fr0", cfg);
  StaticSender a({0x01});
  a.send_null = true;
  bus.assign_static_slot(1, &a);
  bus.start();
  sched.run_until(cfg.cycle_length() * 3);
  bus.stop();
  sched.run();
  EXPECT_GE(bus.null_frames(), 3u);
  EXPECT_EQ(bus.static_frames(), 0u);
}

TEST(FlexRay, DynamicSegmentPriorityAndOverflow) {
  sim::Scheduler sched;
  FlexRayConfig cfg;
  cfg.static_slots = 1;
  cfg.dynamic_minislots = 6;
  FlexRayBus bus(sched, "fr0", cfg);
  StaticSender a({0x01});
  StaticSender listener({});
  bus.assign_static_slot(1, &a);
  bus.attach_listener(&listener);
  // Two small frames fit; queue a big one that overflows the segment.
  bus.send_dynamic(&a, 2, util::Bytes(4, 0xBB));
  bus.send_dynamic(&a, 1, util::Bytes(4, 0xAA));
  bus.send_dynamic(&a, 3, util::Bytes(200, 0xCC));  // too big this cycle
  bus.start();
  sched.run_until(cfg.cycle_length());
  bus.stop();
  sched.run();
  ASSERT_GE(listener.rx.size(), 3u);  // slot1 static + two dynamic
  // Dynamic frames arrive in priority order: dyn 1 before dyn 2.
  EXPECT_EQ(listener.rx[1].payload[0], 0xAA);
  EXPECT_EQ(listener.rx[2].payload[0], 0xBB);
  EXPECT_GE(bus.dynamic_dropped(), 1u);  // re-counted every cycle it defers
  EXPECT_THROW(bus.send_dynamic(&a, 0, {}), std::invalid_argument);
}

TEST(FlexRay, CycleCounterWraps64) {
  sim::Scheduler sched;
  FlexRayConfig cfg;
  cfg.static_slots = 1;
  cfg.dynamic_minislots = 1;
  FlexRayBus bus(sched, "fr0", cfg);
  StaticSender a({0x01});
  bus.assign_static_slot(1, &a);
  bus.start();
  sched.run_until(cfg.cycle_length() * 70);
  bus.stop();
  sched.run();
  EXPECT_LT(bus.cycle(), 64);
  EXPECT_GE(a.asked, 70);
}

// ---------------------------------------------------------------- Ethernet

class EthSink : public EthernetEndpoint {
 public:
  using EthernetEndpoint::EthernetEndpoint;
  void on_frame(const EthernetFrame& f, SimTime at) override {
    rx.push_back(f);
    rx_at.push_back(at);
  }
  std::vector<EthernetFrame> rx;
  std::vector<SimTime> rx_at;
};

EthernetFrame eth_frame(const MacAddress& src, const MacAddress& dst,
                        std::uint16_t vlan, std::size_t len) {
  EthernetFrame f;
  f.src = src;
  f.dst = dst;
  f.vlan = vlan;
  f.payload.resize(len, 0xEE);
  return f;
}

TEST(Ethernet, MacHelpers) {
  const MacAddress m = mac_from_u64(0x0000112233445566ULL >> 8);
  EXPECT_EQ(mac_to_string(mac_from_u64(0xa1b2c3d4e5f6ULL)), "a1:b2:c3:d4:e5:f6");
  (void)m;
}

TEST(Ethernet, FloodsUnknownThenLearns) {
  sim::Scheduler sched;
  EthernetSwitch sw(sched, "sw0");
  EthSink a("a", mac_from_u64(1)), b("b", mac_from_u64(2)), c("c", mac_from_u64(3));
  const auto pa = sw.connect(&a);
  const auto pb = sw.connect(&b);
  sw.connect(&c);
  // a -> b: b unknown, flood to b and c.
  EXPECT_TRUE(sw.send(pa, eth_frame(a.mac(), b.mac(), 0, 10)));
  sched.run();
  EXPECT_EQ(b.rx.size(), 1u);
  EXPECT_EQ(c.rx.size(), 1u);
  EXPECT_EQ(sw.flooded(), 1u);
  ASSERT_TRUE(sw.learned_port(a.mac()).has_value());
  // b -> a: a is learned, unicast only.
  EXPECT_TRUE(sw.send(pb, eth_frame(b.mac(), a.mac(), 0, 10)));
  sched.run();
  EXPECT_EQ(a.rx.size(), 1u);
  EXPECT_EQ(c.rx.size(), 1u);  // unchanged
  // a -> b again: now unicast.
  EXPECT_TRUE(sw.send(pa, eth_frame(a.mac(), b.mac(), 0, 10)));
  sched.run();
  EXPECT_EQ(b.rx.size(), 2u);
  EXPECT_EQ(c.rx.size(), 1u);
}

TEST(Ethernet, BroadcastReachesAll) {
  sim::Scheduler sched;
  EthernetSwitch sw(sched, "sw0");
  EthSink a("a", mac_from_u64(1)), b("b", mac_from_u64(2)), c("c", mac_from_u64(3));
  const auto pa = sw.connect(&a);
  sw.connect(&b);
  sw.connect(&c);
  sw.send(pa, eth_frame(a.mac(), kBroadcastMac, 0, 10));
  sched.run();
  EXPECT_EQ(b.rx.size(), 1u);
  EXPECT_EQ(c.rx.size(), 1u);
  EXPECT_TRUE(a.rx.empty());
}

TEST(Ethernet, VlanIsolation) {
  sim::Scheduler sched;
  EthernetSwitch sw(sched, "sw0");
  EthSink adas("adas", mac_from_u64(1)), info("info", mac_from_u64(2));
  const auto p_adas = sw.connect(&adas);
  const auto p_info = sw.connect(&info);
  sw.set_port_vlans(p_adas, {10});
  sw.set_port_vlans(p_info, {20});
  // Infotainment cannot inject into the ADAS VLAN...
  EXPECT_FALSE(sw.send(p_info, eth_frame(info.mac(), kBroadcastMac, 10, 10)));
  EXPECT_EQ(sw.dropped_vlan(), 1u);
  // ...and ADAS broadcasts do not leak to the infotainment port.
  EXPECT_TRUE(sw.send(p_adas, eth_frame(adas.mac(), kBroadcastMac, 10, 10)));
  sched.run();
  EXPECT_TRUE(info.rx.empty());
  EXPECT_GE(sw.dropped_vlan(), 2u);
}

TEST(Ethernet, PolicerLimitsIngress) {
  sim::Scheduler sched;
  EthernetSwitch sw(sched, "sw0");
  EthSink a("a", mac_from_u64(1)), b("b", mac_from_u64(2));
  const auto pa = sw.connect(&a);
  sw.connect(&b);
  sw.set_policer(pa, 1000.0, 200.0);  // tiny budget
  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    if (sw.send(pa, eth_frame(a.mac(), kBroadcastMac, 0, 64))) ++admitted;
  }
  EXPECT_LT(admitted, 5);
  EXPECT_GT(sw.dropped_policer(), 45u);
  sched.run();
}

TEST(Ethernet, PortDownQuarantine) {
  sim::Scheduler sched;
  EthernetSwitch sw(sched, "sw0");
  EthSink a("a", mac_from_u64(1)), b("b", mac_from_u64(2));
  const auto pa = sw.connect(&a);
  sw.connect(&b);
  sw.set_port_enabled(pa, false);
  EXPECT_FALSE(sw.port_enabled(pa));
  EXPECT_FALSE(sw.send(pa, eth_frame(a.mac(), kBroadcastMac, 0, 10)));
  EXPECT_EQ(sw.dropped_port_down(), 1u);
  sw.set_port_enabled(pa, true);
  EXPECT_TRUE(sw.send(pa, eth_frame(a.mac(), kBroadcastMac, 0, 10)));
  sched.run();
  EXPECT_EQ(b.rx.size(), 1u);
}

TEST(Ethernet, LatencyIncludesStoreAndForward) {
  sim::Scheduler sched;
  EthernetSwitch sw(sched, "sw0", 100'000'000, SimTime::from_us(5));
  EthSink a("a", mac_from_u64(1)), b("b", mac_from_u64(2));
  const auto pa = sw.connect(&a);
  sw.connect(&b);
  sw.send(pa, eth_frame(a.mac(), kBroadcastMac, 0, 100));
  sched.run();
  ASSERT_EQ(b.rx_at.size(), 1u);
  // 2x serialization (~11.04us for 138 wire bytes) + 5us processing.
  EXPECT_GT(b.rx_at[0].us(), 15.0);
  EXPECT_LT(b.rx_at[0].us(), 40.0);
}

// ---------------------------------------------------------------- SecOC

TEST(SecOc, ProtectVerifyRoundTrip) {
  const util::Bytes key(16, 0x42);
  SecOcChannel tx_ch(key), rx_ch(key);
  FreshnessManager tx_fm, rx_fm;
  const util::Bytes payload{0xde, 0xad, 0xbe, 0xef};
  const util::Bytes pdu = tx_ch.protect(0x0101, payload, tx_fm);
  EXPECT_EQ(pdu.size(), payload.size() + tx_ch.overhead());
  const auto res = rx_ch.verify(0x0101, pdu, rx_fm);
  EXPECT_EQ(res.status, SecOcStatus::kOk);
  EXPECT_EQ(res.payload, payload);
}

TEST(SecOc, RejectsReplay) {
  const util::Bytes key(16, 0x42);
  SecOcChannel ch(key);
  FreshnessManager tx_fm, rx_fm;
  const util::Bytes pdu = ch.protect(1, util::Bytes{0x01}, tx_fm);
  EXPECT_EQ(ch.verify(1, pdu, rx_fm).status, SecOcStatus::kOk);
  const auto replay = ch.verify(1, pdu, rx_fm);
  EXPECT_NE(replay.status, SecOcStatus::kOk);
}

TEST(SecOc, RejectsTamperedPayloadAndMac) {
  const util::Bytes key(16, 0x42);
  SecOcChannel ch(key);
  FreshnessManager tx_fm, rx_fm;
  util::Bytes pdu = ch.protect(1, util::Bytes{0x01, 0x02, 0x03}, tx_fm);
  util::Bytes bad = pdu;
  bad[0] ^= 1;
  EXPECT_EQ(ch.verify(1, bad, rx_fm).status, SecOcStatus::kMacMismatch);
  bad = pdu;
  bad.back() ^= 1;
  EXPECT_EQ(ch.verify(1, bad, rx_fm).status, SecOcStatus::kMacMismatch);
  // Wrong data id also fails.
  EXPECT_EQ(ch.verify(2, pdu, rx_fm).status, SecOcStatus::kMacMismatch);
  // Too-short PDU.
  EXPECT_EQ(ch.verify(1, util::Bytes(2), rx_fm).status, SecOcStatus::kTooShort);
}

TEST(SecOc, WrongKeyFails) {
  SecOcChannel tx_ch(util::Bytes(16, 0x42)), rx_ch(util::Bytes(16, 0x43));
  FreshnessManager tx_fm, rx_fm;
  const util::Bytes pdu = tx_ch.protect(1, util::Bytes{0x01}, tx_fm);
  EXPECT_EQ(rx_ch.verify(1, pdu, rx_fm).status, SecOcStatus::kMacMismatch);
}

TEST(SecOc, FreshnessTruncationRollover) {
  // 1-byte freshness: after 256 messages the truncated value wraps; the
  // receiver must reconstruct correctly as long as it stays in sync.
  const util::Bytes key(16, 0x11);
  SecOcChannel ch(key, SecOcConfig{4, 1, 16});
  FreshnessManager tx_fm, rx_fm;
  for (int i = 0; i < 600; ++i) {
    const util::Bytes pdu = ch.protect(7, util::Bytes{0xAB}, tx_fm);
    ASSERT_EQ(ch.verify(7, pdu, rx_fm).status, SecOcStatus::kOk) << i;
  }
}

TEST(SecOc, LossWithinWindowTolerated) {
  const util::Bytes key(16, 0x11);
  SecOcChannel ch(key, SecOcConfig{4, 1, 16});
  FreshnessManager tx_fm, rx_fm;
  for (int i = 0; i < 100; ++i) {
    const util::Bytes pdu = ch.protect(7, util::Bytes{0x01}, tx_fm);
    if (i % 3 == 0) continue;  // drop a third of the traffic
    ASSERT_EQ(ch.verify(7, pdu, rx_fm).status, SecOcStatus::kOk) << i;
  }
}

TEST(SecOc, GapBeyondWindowRejected) {
  const util::Bytes key(16, 0x11);
  SecOcChannel ch(key, SecOcConfig{4, 2, 8});
  FreshnessManager tx_fm, rx_fm;
  const util::Bytes first = ch.protect(7, util::Bytes{0x01}, tx_fm);
  ASSERT_EQ(ch.verify(7, first, rx_fm).status, SecOcStatus::kOk);
  for (int i = 0; i < 50; ++i) (void)ch.protect(7, util::Bytes{0x01}, tx_fm);
  const util::Bytes late = ch.protect(7, util::Bytes{0x01}, tx_fm);
  EXPECT_EQ(ch.verify(7, late, rx_fm).status, SecOcStatus::kFreshnessOutOfWindow);
}

TEST(SecOc, ImplicitFreshnessMode) {
  // freshness_bytes = 0: nothing on the wire, receiver scans the window.
  const util::Bytes key(16, 0x11);
  SecOcChannel ch(key, SecOcConfig{4, 0, 8});
  FreshnessManager tx_fm, rx_fm;
  for (int i = 0; i < 20; ++i) {
    const util::Bytes pdu = ch.protect(9, util::Bytes{0x55}, tx_fm);
    EXPECT_EQ(pdu.size(), 1u + 4u);
    if (i % 4 == 0) continue;  // drops force window scanning
    ASSERT_EQ(ch.verify(9, pdu, rx_fm).status, SecOcStatus::kOk) << i;
  }
}

TEST(SecOc, ForgeryProbabilityAndConfigValidation) {
  const util::Bytes key(16, 0x11);
  EXPECT_DOUBLE_EQ(SecOcChannel(key, SecOcConfig{1, 1, 8}).forgery_probability(),
                   1.0 / 256.0);
  EXPECT_DOUBLE_EQ(SecOcChannel(key, SecOcConfig{4, 1, 8}).forgery_probability(),
                   std::pow(2.0, -32));
  EXPECT_THROW(SecOcChannel(key, SecOcConfig{0, 1, 8}), std::invalid_argument);
  EXPECT_THROW(SecOcChannel(key, SecOcConfig{17, 1, 8}), std::invalid_argument);
  EXPECT_THROW(SecOcChannel(key, SecOcConfig{4, 9, 8}), std::invalid_argument);
}

TEST(SecOc, RandomForgeryRateMatchesTruncation) {
  // Empirical forgery: with a 1-byte MAC, ~1/256 random MACs verify.
  const util::Bytes key(16, 0x77);
  SecOcChannel ch(key, SecOcConfig{1, 1, 1u << 20});
  FreshnessManager tx_fm;
  util::Rng rng(99);
  int accepted = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    FreshnessManager rx_fm;  // fresh receiver each attempt
    util::Bytes forged{0x01};                       // payload
    forged.push_back(static_cast<std::uint8_t>(1));  // freshness guess
    forged.push_back(static_cast<std::uint8_t>(rng.next_u64()));  // random MAC
    if (ch.verify(3, forged, rx_fm).status == SecOcStatus::kOk) ++accepted;
  }
  const double rate = static_cast<double>(accepted) / trials;
  EXPECT_NEAR(rate, 1.0 / 256.0, 3.0 / 256.0);
  EXPECT_GT(accepted, 0);  // 1-byte MACs are actually forgeable
}

}  // namespace
}  // namespace aseck::ivn
