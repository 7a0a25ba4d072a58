// Tests for the replayable attack corpus (E20): stable text serialization,
// strict parsing, deterministic replay onto a live CAN bus (same corpus ->
// identical TraceBus timeline digest), and malformed-frame chaos splicing
// via FaultKind::kMalformedFrame.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attacks/corpus.hpp"
#include "ivn/can.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

namespace aseck::attacks {
namespace {

using sim::Scheduler;
using sim::SimTime;
using util::Bytes;

class RecordingNode : public ivn::CanNode {
 public:
  using ivn::CanNode::CanNode;
  void on_frame(const ivn::CanFrame& frame, sim::SimTime at) override {
    rx.push_back(frame);
    rx_at.push_back(at);
  }
  std::vector<ivn::CanFrame> rx;
  std::vector<sim::SimTime> rx_at;
};

// --- serialization ---------------------------------------------------------

TEST(ScenarioCorpus, BuiltinRoundTripsExactly) {
  const ScenarioCorpus c = ScenarioCorpus::builtin();
  ASSERT_GE(c.size(), 10u);
  const std::string text = c.serialize();
  const auto back = ScenarioCorpus::parse(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back->entries()[i], c.entries()[i]) << "entry " << i;
  }
  // Serialization is a fixpoint.
  EXPECT_EQ(back->serialize(), text);
}

TEST(ScenarioCorpus, BuiltinCoversFiveAttackClasses) {
  const ScenarioCorpus c = ScenarioCorpus::builtin();
  EXPECT_GE(c.classes().size(), 5u);
  // The V-matrix anchors must all be present.
  EXPECT_FALSE(c.by_class(AttackClass::kUdsSecurityBypass).empty());
  EXPECT_FALSE(c.by_class(AttackClass::kUdsIntegerOverflow).empty());
  EXPECT_FALSE(c.by_class(AttackClass::kCanDlcOverflow).empty());
  EXPECT_FALSE(c.by_class(AttackClass::kFirmwareHeaderOverflow).empty());
  EXPECT_FALSE(c.by_class(AttackClass::kReplay).empty());
  EXPECT_FALSE(c.by_class(AttackClass::kFlood).empty());
}

TEST(ScenarioCorpus, ParseIsStrict) {
  EXPECT_FALSE(ScenarioCorpus::parse("").has_value());
  EXPECT_FALSE(ScenarioCorpus::parse("not-a-corpus\n").has_value());
  const std::string hdr = "aseck-corpus v1\n";
  // Too few fields.
  EXPECT_FALSE(ScenarioCorpus::parse(hdr + "x|replay|can\n").has_value());
  // Unknown class / protocol names.
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "x|warp|can|1|1|1|AA|o|n\n").has_value());
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "x|replay|tcp|1|1|1|AA|o|n\n").has_value());
  // Bad hex, bad numbers, illegal can id, zero repeat, empty id.
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "x|replay|can|1|1|1|ZZ|o|n\n").has_value());
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "x|replay|can|-1|1|1|AA|o|n\n").has_value());
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "x|replay|can|536870912|1|1|AA|o|n\n")
          .has_value());
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "x|replay|can|1|1|0|AA|o|n\n").has_value());
  EXPECT_FALSE(
      ScenarioCorpus::parse(hdr + "|replay|can|1|1|1|AA|o|n\n").has_value());
  // A minimal valid corpus parses (empty payload allowed, blank lines ok).
  const auto ok =
      ScenarioCorpus::parse(hdr + "x|replay|can|1|1|1||o|n\n\n");
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ(ok->entries()[0].id, "x");
  EXPECT_TRUE(ok->entries()[0].payload.empty());
}

// --- replay ----------------------------------------------------------------

struct ReplayRun {
  std::uint64_t digest = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t rx_frames = 0;
};

ReplayRun replay_builtin_once() {
  Scheduler sched;
  sim::Telemetry tel;
  ivn::CanBus bus(sched, "can0", 500000, 0, tel);
  RecordingNode sink("sink");
  bus.attach(&sink);
  CorpusReplayer rep(sched, bus, "corpus", tel);
  rep.schedule_all(ScenarioCorpus::builtin(), SimTime::from_ms(1),
                   SimTime::from_ms(2));
  sched.run();
  ReplayRun r;
  r.digest = timeline_digest(*tel.bus);
  r.frames_sent = rep.frames_sent();
  r.rx_frames = sink.rx.size();
  return r;
}

TEST(CorpusReplayer, ReplayIsDeterministic) {
  const ReplayRun a = replay_builtin_once();
  const ReplayRun b = replay_builtin_once();
  EXPECT_GT(a.frames_sent, 0u);
  EXPECT_GT(a.rx_frames, 0u);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.rx_frames, b.rx_frames);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(CorpusReplayer, ChunksLongPayloadsAndUsesCarrierId) {
  Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500000);
  RecordingNode sink("sink");
  bus.attach(&sink);
  CorpusReplayer rep(sched, bus, "corpus");
  ScenarioEntry e;
  e.id = "long";
  e.cls = AttackClass::kFlood;
  e.can_id = 0x321;
  e.payload = Bytes(20, 0xEE);  // 20 bytes -> 3 classic frames (8+8+4)
  rep.schedule(e, SimTime::from_ms(1));
  sched.run();
  ASSERT_EQ(sink.rx.size(), 3u);
  EXPECT_EQ(sink.rx[0].id, 0x321u);
  EXPECT_EQ(sink.rx[0].data.size(), 8u);
  EXPECT_EQ(sink.rx[2].data.size(), 4u);
  EXPECT_EQ(rep.frames_sent(), 3u);
  EXPECT_EQ(rep.frames_rejected(), 0u);
  // Replay events land on the replayer's trace.
  EXPECT_EQ(rep.trace().bus()->count("corpus", "corpus_tx"), 3u);
  EXPECT_EQ(rep.trace().bus()->count("corpus", "corpus_schedule"), 1u);
}

// --- malformed-frame chaos splicing ----------------------------------------

TEST(FaultPlan, MalformedFrameSplicesPayloadInsideWindow) {
  Scheduler sched;
  sim::FaultPlan plan(sched, 7);
  ivn::CanBus bus(sched, "can0", 500000);
  bus.set_fault_port(&plan.port("can0"));
  RecordingNode tx("tx"), sink("sink");
  bus.attach(&tx);
  bus.attach(&sink);

  sim::FaultSpec spec;
  spec.target = "can0";
  spec.kind = sim::FaultKind::kMalformedFrame;
  spec.payload = Bytes{0xDE, 0xAD};
  plan.window(SimTime::from_ms(10), SimTime::from_ms(20), spec);

  ivn::CanFrame f;
  f.id = 0x100;
  f.data = Bytes{0x01, 0x02, 0x03, 0x04};
  // One frame inside the window, one after it clears.
  sched.schedule_at(SimTime::from_ms(12), [&] { bus.send(&tx, f); });
  sched.schedule_at(SimTime::from_ms(30), [&] { bus.send(&tx, f); });
  sched.run();

  ASSERT_EQ(sink.rx.size(), 2u);
  // Inside the window the delivered frame carries the spliced payload.
  EXPECT_EQ(sink.rx[0].data, (Bytes{0xDE, 0xAD}));
  EXPECT_EQ(sink.rx[0].id, 0x100u);  // id untouched — payload-level chaos
  // Outside the window traffic is pristine again.
  EXPECT_EQ(sink.rx[1].data, f.data);
  EXPECT_GT(bus.trace().bus()->count("can0", "fault_malformed"), 0u);
  // Frame-level faults auto-recover when the window clears.
  EXPECT_EQ(plan.unrecovered(), 0u);
}

TEST(FaultPlan, MalformedPayloadClampedToFrameCapacity) {
  Scheduler sched;
  sim::FaultPlan plan(sched, 7);
  ivn::CanBus bus(sched, "can0", 500000);
  bus.set_fault_port(&plan.port("can0"));
  RecordingNode tx("tx"), sink("sink");
  bus.attach(&tx);
  bus.attach(&sink);

  // A 20-byte malformed payload spliced into classic traffic must be
  // truncated to 8 bytes so the frame stays schedulable.
  sim::FaultSpec spec;
  spec.target = "can0";
  spec.kind = sim::FaultKind::kMalformedFrame;
  spec.payload = Bytes(20, 0xBB);
  plan.window(SimTime::from_ms(1), SimTime::from_ms(5), spec);

  ivn::CanFrame f;
  f.id = 0x200;
  f.data = Bytes{0x11};
  sched.schedule_at(SimTime::from_ms(2), [&] { bus.send(&tx, f); });
  sched.run();

  ASSERT_EQ(sink.rx.size(), 1u);
  EXPECT_EQ(sink.rx[0].data.size(), 8u);
  EXPECT_EQ(sink.rx[0].data[0], 0xBB);
  EXPECT_TRUE(sink.rx[0].valid());
}

}  // namespace
}  // namespace aseck::attacks
