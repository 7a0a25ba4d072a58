// Tests for the CAN bus model: frame validity, bit-accurate timing,
// arbitration, fault confinement (bus-off), and stats.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ivn/can.hpp"
#include "util/rng.hpp"

namespace aseck::ivn {
namespace {

/// Test node recording received frames.
class RecordingNode : public CanNode {
 public:
  using CanNode::CanNode;
  void on_frame(const CanFrame& frame, SimTime at) override {
    rx.push_back(frame);
    rx_at.push_back(at);
  }
  void on_tx_done(const CanFrame& frame, SimTime at) override {
    tx_done.push_back(frame);
    (void)at;
  }
  void on_bus_off(SimTime) override { bus_off_seen = true; }

  std::vector<CanFrame> rx;
  std::vector<SimTime> rx_at;
  std::vector<CanFrame> tx_done;
  bool bus_off_seen = false;
};

CanFrame make_frame(std::uint32_t id, std::initializer_list<std::uint8_t> data) {
  CanFrame f;
  f.id = id;
  f.data = util::Bytes(data);
  return f;
}

TEST(CanFrame, Validity) {
  EXPECT_TRUE(make_frame(0x7ff, {1, 2, 3}).valid());
  EXPECT_FALSE(make_frame(0x800, {}).valid());  // 11-bit overflow
  CanFrame ext = make_frame(0x1fffffff, {});
  ext.extended = true;
  EXPECT_TRUE(ext.valid());
  ext.id = 0x20000000;
  EXPECT_FALSE(ext.valid());
  CanFrame big = make_frame(1, {});
  big.data.resize(9);
  EXPECT_FALSE(big.valid());
  CanFrame remote = make_frame(1, {});
  remote.remote = true;
  EXPECT_TRUE(remote.valid());
  remote.data.push_back(1);
  EXPECT_FALSE(remote.valid());  // RTR carries no data
}

TEST(CanFrame, FdValidity) {
  CanFrame fd = make_frame(1, {});
  fd.format = CanFormat::kFd;
  fd.data.resize(64);
  EXPECT_TRUE(fd.valid());
  fd.data.resize(63);
  EXPECT_FALSE(fd.valid());  // not a legal FD size
  fd.data.resize(12);
  EXPECT_TRUE(fd.valid());
  EXPECT_EQ(CanFrame::fd_round_up(9), 12u);
  EXPECT_EQ(CanFrame::fd_round_up(13), 16u);
  EXPECT_EQ(CanFrame::fd_round_up(64), 64u);
  EXPECT_EQ(CanFrame::fd_round_up(0), 0u);
}

TEST(CanFrame, WireBitsInExpectedRange) {
  // Base frame with 8 bytes: 1+11+1+1+1+4+64+15 = 98 stuffable bits,
  // + up to ~24 stuff bits + 13 trailer -> between 111 and 135.
  const CanFrame f = make_frame(0x123, {1, 2, 3, 4, 5, 6, 7, 8});
  const std::size_t bits = f.wire_bits();
  EXPECT_GE(bits, 111u);
  EXPECT_LE(bits, 135u);
  // Zero-payload frame is much shorter.
  EXPECT_LT(make_frame(0x123, {}).wire_bits(), 70u);
  // Extended frames are longer than base frames.
  CanFrame ext = make_frame(0x123, {1, 2, 3, 4});
  ext.extended = true;
  ext.id = 0x04123456;
  EXPECT_GT(ext.wire_bits(), make_frame(0x123, {1, 2, 3, 4}).wire_bits());
}

TEST(CanFrame, StuffBitsWorstCase) {
  // All-zero payload with a zero ID maximizes stuffing.
  CanFrame f = make_frame(0, {0, 0, 0, 0, 0, 0, 0, 0});
  const std::size_t plain = f.stuff_region_bits().size();
  const std::size_t wired = f.wire_bits();
  EXPECT_GT(wired, plain + 13);  // must contain stuff bits beyond trailer
  EXPECT_EQ(plain, 98u);
  EXPECT_EQ(wired, 127u);
}

// Bit-by-bit reference encoder: one std::vector<bool> push per bit, a
// bit-serial CRC over the region zero-padded to a byte boundary, and a
// bit-serial stuff counter. The byte-wide encoder must match it exactly.
std::vector<bool> ref_stuff_region_bits(const CanFrame& f) {
  std::vector<bool> bits;
  bits.push_back(false);  // SOF
  auto push_field = [&bits](std::uint32_t v, int width) {
    for (int i = width - 1; i >= 0; --i) bits.push_back((v >> i) & 1u);
  };
  if (!f.extended) {
    push_field(f.id, 11);
    bits.push_back(f.remote);
    bits.push_back(false);
    bits.push_back(f.format == CanFormat::kFd);
  } else {
    push_field(f.id >> 18, 11);
    bits.push_back(true);
    bits.push_back(true);
    push_field(f.id & 0x3ffff, 18);
    bits.push_back(f.remote);
    bits.push_back(false);
    bits.push_back(f.format == CanFormat::kFd);
  }
  std::uint32_t dlc = static_cast<std::uint32_t>(f.data.size());
  if (f.format == CanFormat::kFd) {
    static constexpr std::size_t kSizes[] = {0, 1,  2,  3,  4,  5,  6,  7,
                                             8, 12, 16, 20, 24, 32, 48, 64};
    for (std::uint32_t i = 0; i < 16; ++i) {
      if (kSizes[i] == f.data.size()) dlc = i;
    }
  }
  push_field(dlc, 4);
  for (std::uint8_t b : f.data) push_field(b, 8);
  unsigned width = 15;
  std::uint32_t poly = 0x4599;
  if (f.format == CanFormat::kFd) {
    width = f.data.size() <= 16 ? 17 : 21;
    poly = f.data.size() <= 16 ? 0x3685B : 0x302899;
  }
  const std::uint32_t mask = (1u << width) - 1;
  std::uint32_t crc = 0;
  const std::size_t padded = (bits.size() + 7) / 8 * 8;
  for (std::size_t i = 0; i < padded; ++i) {
    const std::uint32_t in = i < bits.size() && bits[i];
    const std::uint32_t top = (crc >> (width - 1)) & 1u;
    crc = (crc << 1) & mask;
    if (top ^ in) crc = (crc ^ poly) & mask;
  }
  push_field(crc, static_cast<int>(width));
  return bits;
}

std::size_t ref_wire_bits(const CanFrame& f, std::size_t* arb) {
  const std::vector<bool> bits = ref_stuff_region_bits(f);
  std::size_t stuffed = bits.size();
  int run = 1;
  bool last = bits[0];
  for (std::size_t i = 1; i < bits.size(); ++i) {
    if (bits[i] == last) {
      if (++run == 5) {
        ++stuffed;
        last = !last;
        run = 1;
      }
    } else {
      last = bits[i];
      run = 1;
    }
  }
  *arb = (f.extended ? 50 : 30) + 13;
  return stuffed + 13;
}

/// A random legal frame. Payloads lean toward all-0x00 or all-0xFF so that
/// 5-bit runs cross byte boundaries and the CRC field.
CanFrame random_frame(util::Rng& rng) {
  static constexpr std::size_t kFdSizes[] = {0, 1,  2,  3,  4,  5,  6,  7,
                                             8, 12, 16, 20, 24, 32, 48, 64};
  CanFrame f;
  f.extended = rng.uniform(2) == 0;
  const std::uint32_t max_id = f.extended ? 0x1fffffffu : 0x7ffu;
  switch (rng.uniform(4)) {
    case 0: f.id = 0; break;
    case 1: f.id = max_id; break;
    default: f.id = static_cast<std::uint32_t>(rng.next_u32() & max_id);
  }
  std::size_t len;
  if (rng.uniform(2) == 0) {
    f.format = CanFormat::kClassic;
    f.remote = rng.uniform(5) == 0;
    len = f.remote ? 0 : rng.uniform(9);
  } else {
    f.format = CanFormat::kFd;
    f.brs = rng.uniform(2) == 0;
    len = kFdSizes[rng.uniform(16)];
  }
  // Style 0: mostly 0x00, 1: mostly 0xFF, 2: 0x00/0xFF mix, 3: uniform.
  const std::uint64_t style = rng.uniform(4);
  f.data.resize(len);
  for (auto& b : f.data) {
    if (style == 3 || rng.uniform(16) == 0) {
      b = static_cast<std::uint8_t>(rng.next_u32());
    } else {
      const bool ones = style == 1 || (style == 2 && rng.uniform(2) == 0);
      b = ones ? 0xFF : 0x00;
    }
  }
  return f;
}

TEST(CanFrame, WireEncodingMatchesBitSerialReference) {
  util::Rng rng(0xCA11);
  for (int trial = 0; trial < 20000; ++trial) {
    const CanFrame f = random_frame(rng);
    ASSERT_TRUE(f.valid());
    SCOPED_TRACE(util::to_hex(f.encode_wire()));
    std::size_t arb = 0, ref_arb = 0;
    ASSERT_EQ(f.wire_bits(&arb), ref_wire_bits(f, &ref_arb));
    ASSERT_EQ(arb, ref_arb);
    ASSERT_EQ(f.stuff_region_bits(), ref_stuff_region_bits(f));
  }
}

TEST(CanFrame, InvalidFrameHasNoWireEncoding) {
  sim::Scheduler sched;
  const CanBus bus(sched, "can0", 500000);
  CanFrame big = make_frame(1, {});
  big.data.resize(9);
  CanFrame fd = make_frame(1, {});
  fd.format = CanFormat::kFd;
  fd.data.resize(65);
  for (const CanFrame& f : {make_frame(0x800, {}), big, fd}) {
    ASSERT_FALSE(f.valid());
    EXPECT_THROW(f.wire_bits(), std::invalid_argument);
    EXPECT_THROW(f.stuff_region_bits(), std::invalid_argument);
    EXPECT_THROW(bus.frame_time(f), std::invalid_argument);
  }
}

TEST(CanBus, DeliversToAllOtherNodes) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a"), b("b"), c("c");
  bus.attach(&a);
  bus.attach(&b);
  bus.attach(&c);
  EXPECT_TRUE(bus.send(&a, make_frame(0x100, {0xAA})));
  sched.run();
  EXPECT_TRUE(a.rx.empty());  // sender does not hear its own frame
  ASSERT_EQ(b.rx.size(), 1u);
  ASSERT_EQ(c.rx.size(), 1u);
  EXPECT_EQ(b.rx[0].id, 0x100u);
  ASSERT_EQ(a.tx_done.size(), 1u);
  EXPECT_EQ(bus.stats().frames_ok, 1u);
}

TEST(CanBus, TimingMatchesBitrate) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  const CanFrame f = make_frame(0x123, {1, 2, 3, 4, 5, 6, 7, 8});
  const SimTime expect = bus.frame_time(f);
  bus.send(&a, f);
  sched.run();
  ASSERT_EQ(b.rx_at.size(), 1u);
  EXPECT_EQ(b.rx_at[0], expect);
  // 500 kbit/s, ~120 bits -> ~240us.
  EXPECT_NEAR(expect.us(), 240.0, 40.0);
}

TEST(CanBus, ArbitrationLowestIdWins) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode lo("lo"), hi("hi"), rx("rx");
  bus.attach(&lo);
  bus.attach(&hi);
  bus.attach(&rx);
  // Enqueue high-priority *after* low-priority but before bus goes idle:
  // first frame seizes the bus; then arbitration picks the lower ID.
  bus.send(&hi, make_frame(0x700, {1}));
  bus.send(&hi, make_frame(0x701, {2}));
  bus.send(&lo, make_frame(0x100, {3}));
  sched.run();
  ASSERT_EQ(rx.rx.size(), 3u);
  EXPECT_EQ(rx.rx[0].id, 0x700u);  // already on the wire
  EXPECT_EQ(rx.rx[1].id, 0x100u);  // wins arbitration
  EXPECT_EQ(rx.rx[2].id, 0x701u);
}

TEST(CanBus, PriorityInversionLatency) {
  // A low-priority frame already transmitting delays a high-priority one by
  // at most one frame time (the classic CAN blocking term).
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a"), b("b"), rx("rx");
  bus.attach(&a);
  bus.attach(&b);
  bus.attach(&rx);
  const CanFrame low = make_frame(0x7fe, {1, 2, 3, 4, 5, 6, 7, 8});
  const CanFrame high = make_frame(0x001, {9});
  bus.send(&a, low);
  bus.send(&b, high);
  sched.run();
  ASSERT_EQ(rx.rx_at.size(), 2u);
  const SimTime high_latency = rx.rx_at[1];
  EXPECT_LE(high_latency.ns,
            (bus.frame_time(low) + bus.frame_time(high)).ns);
}

TEST(CanBus, FdFramesFasterWithBrs) {
  sim::Scheduler sched;
  CanBus slow(sched, "can0", 500000);
  CanBus fast(sched, "canfd0", 500000, 5000000);
  CanFrame fd = make_frame(0x100, {});
  fd.format = CanFormat::kFd;
  fd.data.resize(64, 0x5a);
  fd.brs = true;
  EXPECT_LT(fast.frame_time(fd).ns, slow.frame_time(fd).ns);
}

TEST(CanBus, RejectsInvalidAndBusOffNodes) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a");
  bus.attach(&a);
  EXPECT_FALSE(bus.send(&a, make_frame(0x800, {})));
  // Drive node to bus-off via the injector.
  bus.set_error_injector([](const CanFrame&, const CanNode&) { return true; });
  EXPECT_TRUE(bus.send(&a, make_frame(0x100, {})));
  sched.run();
  EXPECT_EQ(a.state(), CanNodeState::kBusOff);
  EXPECT_TRUE(a.bus_off_seen);
  EXPECT_FALSE(bus.send(&a, make_frame(0x100, {})));
  bus.recover(&a);
  EXPECT_EQ(a.state(), CanNodeState::kErrorActive);
  bus.set_error_injector(nullptr);
  EXPECT_TRUE(bus.send(&a, make_frame(0x100, {})));
  sched.run();
}

TEST(CanBus, FaultConfinementProgression) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode victim("victim"), other("other");
  bus.attach(&victim);
  bus.attach(&other);
  int errors_to_inject = 16;  // 16 * 8 = 128 -> error passive
  bus.set_error_injector([&](const CanFrame&, const CanNode& n) {
    if (n.name() == "victim" && errors_to_inject > 0) {
      --errors_to_inject;
      return true;
    }
    return false;
  });
  bus.send(&victim, make_frame(0x100, {1}));
  sched.run();
  // 16 errors raise TEC to 128 (error passive); the final successful
  // retransmit decrements to 127, which re-enters error active per spec.
  EXPECT_EQ(victim.state(), CanNodeState::kErrorActive);
  EXPECT_EQ(victim.tec(), 128 - 1);
  EXPECT_EQ(bus.stats().frames_error, 16u);
  EXPECT_EQ(bus.stats().frames_ok, 1u);
  // Continue to bus-off: need TEC > 255.
  errors_to_inject = 17;
  bus.send(&victim, make_frame(0x100, {1}));
  sched.run();
  EXPECT_EQ(victim.state(), CanNodeState::kBusOff);
}

TEST(CanBus, BusLoadAccounting) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  for (int i = 0; i < 10; ++i) bus.send(&a, make_frame(0x200, {1, 2, 3, 4}));
  sched.run();
  const double load = bus.stats().bus_load(sched.now());
  EXPECT_GT(load, 0.95);  // back-to-back frames kept the bus saturated
  EXPECT_LE(load, 1.01);
  EXPECT_EQ(bus.stats().frames_ok, 10u);
  EXPECT_GT(bus.stats().bits_on_wire, 10u * 60);
}

TEST(CanBus, DetachStopsDelivery) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  bus.detach(&b);
  bus.send(&a, make_frame(0x100, {}));
  sched.run();
  EXPECT_TRUE(b.rx.empty());
}

TEST(CanBus, TraceRecordsEvents) {
  sim::Scheduler sched;
  CanBus bus(sched, "can0", 500000);
  RecordingNode a("a"), b("b");
  bus.attach(&a);
  bus.attach(&b);
  bus.send(&a, make_frame(0x100, {}));
  sched.run();
  EXPECT_EQ(bus.trace().bus()->count("can0", "tx"), 1u);
  EXPECT_EQ(bus.trace().bus()->count("can0", "tx_start"), 1u);
}

}  // namespace
}  // namespace aseck::ivn
