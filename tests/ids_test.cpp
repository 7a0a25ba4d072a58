// Tests for the CAN IDS detectors and ensemble scoring.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "ids/detectors.hpp"
#include "util/rng.hpp"

namespace aseck::ids {
namespace {

using util::Bytes;

CanFrame frame(std::uint32_t id, Bytes data) {
  CanFrame f;
  f.id = id;
  f.data = std::move(data);
  return f;
}

SimTime ms(std::uint64_t v) { return SimTime::from_ms(v); }

/// Trains a detector with periodic benign traffic on id 0x100 every 10 ms.
void train_periodic(Detector& d, std::uint32_t id, int count,
                    std::uint64_t period_ms, util::Rng* rng = nullptr) {
  for (int i = 0; i < count; ++i) {
    Bytes data(8, 0);
    data[0] = 0x10;                       // constant mode byte
    data[1] = static_cast<std::uint8_t>(40 + (i % 20));  // slow-varying speed
    if (rng) data[7] = static_cast<std::uint8_t>(rng->next_u64());  // noise
    d.train(frame(id, data), ms(static_cast<std::uint64_t>(i) * period_ms));
  }
  d.finish_training();
}

TEST(FrequencyDetector, FlagsInjectionBurst) {
  FrequencyDetector d;
  train_periodic(d, 0x100, 200, 10);
  // Live: normal cadence scores low.
  SimTime t = ms(3000);
  EXPECT_LT(d.observe(frame(0x100, Bytes(8)), t), 1.0);
  t = t + ms(10);
  EXPECT_LT(d.observe(frame(0x100, Bytes(8)), t), 1.0);
  // Burst: 1 ms apart -> far below the learned floor.
  t = t + SimTime::from_ms(1);
  EXPECT_GE(d.observe(frame(0x100, Bytes(8)), t), 1.0);
}

TEST(FrequencyDetector, UnknownIdIsAnomalous) {
  FrequencyDetector d;
  train_periodic(d, 0x100, 50, 10);
  EXPECT_GE(d.observe(frame(0x7FF, Bytes(8)), ms(1000)), 1.0);
}

TEST(FrequencyDetector, ToleratesJitter) {
  FrequencyDetector d(4.0);
  util::Rng rng(1);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 500; ++i) {
    d.train(frame(0x100, Bytes(8)), t);
    t = t + SimTime::from_us(10000 + static_cast<std::uint64_t>(rng.uniform(500)));
  }
  d.finish_training();
  // Live traffic with the same jitter should (almost) never alert.
  int alerts = 0;
  for (int i = 0; i < 500; ++i) {
    if (d.observe(frame(0x100, Bytes(8)), t) >= 1.0) ++alerts;
    t = t + SimTime::from_us(10000 + static_cast<std::uint64_t>(rng.uniform(500)));
  }
  EXPECT_LE(alerts, 5);
}

TEST(PayloadDetector, FlagsStructuredByteChange) {
  PayloadEntropyDetector d;
  util::Rng rng(2);
  train_periodic(d, 0x100, 100, 10, &rng);
  // Benign-looking frame: constant byte intact.
  Bytes ok(8, 0);
  ok[0] = 0x10;
  ok[1] = 45;
  ok[7] = 0xEE;  // noise byte may be novel -> low score
  EXPECT_LT(d.observe(frame(0x100, ok), ms(0)), 1.0);
  // Attack: flips the constant mode byte.
  Bytes evil = ok;
  evil[0] = 0xFF;
  EXPECT_GE(d.observe(frame(0x100, evil), ms(0)), 1.0);
}

TEST(PayloadDetector, FlagsDlcChangeAndUnknownId) {
  PayloadEntropyDetector d;
  train_periodic(d, 0x100, 100, 10);
  EXPECT_GE(d.observe(frame(0x100, Bytes(4)), ms(0)), 1.0);  // DLC change
  EXPECT_GE(d.observe(frame(0x200, Bytes(8)), ms(0)), 1.0);  // unknown id
}

TEST(PayloadDetector, InsufficientTrainingStaysQuiet) {
  PayloadEntropyDetector d;
  d.train(frame(0x100, Bytes(8, 1)), ms(0));
  d.train(frame(0x100, Bytes(8, 1)), ms(10));
  EXPECT_EQ(d.observe(frame(0x100, Bytes(8, 9)), ms(20)), 0.0);
}

TEST(PayloadDetector, ScoreTiersFollowPositionCardinality) {
  // Position 0 learns `cardinality` distinct values 0..n-1; position 1 only
  // ever carries 0xAA.
  auto trained = [](unsigned cardinality) {
    PayloadEntropyDetector d;
    for (unsigned i = 0; i < std::max(cardinality, 8u); ++i) {
      d.train(frame(0x100, {static_cast<std::uint8_t>(i % cardinality), 0xAA}),
              ms(i));
    }
    return d;
  };
  const std::pair<unsigned, double> tiers[] = {
      {4, 2.0}, {5, 1.2}, {32, 1.2}, {33, 0.2}};
  for (const auto& [cardinality, score] : tiers) {
    SCOPED_TRACE(cardinality);
    PayloadEntropyDetector d = trained(cardinality);
    EXPECT_EQ(d.observe(frame(0x100, {0xF0, 0xAA}), ms(100)), score);
    EXPECT_EQ(d.observe(frame(0x100, {0x00, 0xAA}), ms(101)), 0.0);  // seen
    // 0xAA is known at position 1 only, 0x00 at position 0 only.
    EXPECT_EQ(d.observe(frame(0x100, {0xAA, 0xAA}), ms(102)), score);
    EXPECT_EQ(d.observe(frame(0x100, {0x00, 0x00}), ms(103)), 2.0);
  }
}

TEST(SpecDetector, AllowlistAndDlc) {
  SpecRuleDetector d;
  d.train(frame(0x100, Bytes(8)), ms(0));
  EXPECT_LT(d.observe(frame(0x100, Bytes(8)), ms(1)), 1.0);
  EXPECT_GE(d.observe(frame(0x101, Bytes(8)), ms(2)), 1.0);  // not allowlisted
  EXPECT_GE(d.observe(frame(0x100, Bytes(2)), ms(3)), 1.0);  // wrong DLC
}

TEST(SpecDetector, ByteRangeRules) {
  SpecRuleDetector d;
  SpecRuleDetector::Rule r;
  r.dlc = 2;
  r.byte_ranges[0] = {0, 120};  // e.g. speed <= 120
  d.add_rule(0x300, r);
  EXPECT_LT(d.observe(frame(0x300, Bytes{100, 0}), ms(0)), 1.0);
  EXPECT_GE(d.observe(frame(0x300, Bytes{200, 0}), ms(0)), 1.0);  // implausible
}

TEST(Ensemble, CombinesDetectorsAndAttributes) {
  IdsEnsemble e = make_default_ensemble();
  EXPECT_EQ(e.detector_count(), 3u);
  for (int i = 0; i < 100; ++i) {
    e.train(frame(0x100, Bytes(8, 0x10)), ms(static_cast<std::uint64_t>(i) * 10));
  }
  e.finish_training();
  // Unknown id triggers (spec gives the strongest signal, 2.0).
  const auto v = e.observe(frame(0x555, Bytes(8)), ms(2000));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.detector, "spec");
  EXPECT_GE(v.max_score, 2.0);
}

TEST(Ensemble, LabeledScoring) {
  IdsEnsemble e = make_default_ensemble();
  for (int i = 0; i < 100; ++i) {
    e.train(frame(0x100, Bytes(8, 0x10)), ms(static_cast<std::uint64_t>(i) * 10));
  }
  e.finish_training();
  SimTime t = ms(2000);
  // 50 benign at the learned cadence.
  for (int i = 0; i < 50; ++i) {
    e.observe_labeled(frame(0x100, Bytes(8, 0x10)), t, false);
    t = t + ms(10);
  }
  // 20 attack frames: unknown id.
  for (int i = 0; i < 20; ++i) {
    e.observe_labeled(frame(0x666, Bytes(8)), t, true);
    t = t + ms(1);
  }
  const IdsScore& s = e.score();
  EXPECT_EQ(s.tp, 20u);
  EXPECT_EQ(s.fn, 0u);
  EXPECT_EQ(s.tn, 50u);
  EXPECT_EQ(s.fp, 0u);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
  EXPECT_DOUBLE_EQ(s.recall(), 1.0);
  EXPECT_DOUBLE_EQ(s.f1(), 1.0);
  EXPECT_DOUBLE_EQ(s.fpr(), 0.0);
  e.reset_score();
  EXPECT_EQ(e.score().tp, 0u);
}

TEST(Ensemble, SpoofedFrameAtNormalRateCaughtByPayload) {
  // Attacker sends a frame with the victim's id at the right cadence but a
  // wrong structured byte: only the payload detector can catch this.
  IdsEnsemble e = make_default_ensemble();
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Bytes data(8, 0);
    data[0] = 0x10;
    data[7] = static_cast<std::uint8_t>(rng.next_u64());
    e.train(frame(0x100, data), ms(static_cast<std::uint64_t>(i) * 10));
  }
  e.finish_training();
  Bytes spoof(8, 0);
  spoof[0] = 0x99;  // wrong mode byte
  const auto v = e.observe(frame(0x100, spoof), ms(5000));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.detector, "payload");
}

TEST(IdsScore, EdgeCases) {
  IdsScore s;
  EXPECT_DOUBLE_EQ(s.precision(), 0.0);
  EXPECT_DOUBLE_EQ(s.recall(), 0.0);
  EXPECT_DOUBLE_EQ(s.f1(), 0.0);
  EXPECT_DOUBLE_EQ(s.fpr(), 0.0);
}

}  // namespace
}  // namespace aseck::ids

namespace aseck::ids {
namespace {

using util::Bytes;

TEST(SequenceDetector, LearnsScheduleAndFlagsBreaks) {
  SequenceDetector d;
  // Deterministic schedule: 0x100 -> 0x200 -> 0x300 repeating.
  const std::uint32_t schedule[] = {0x100, 0x200, 0x300};
  SimTime t = SimTime::zero();
  for (int i = 0; i < 120; ++i) {
    CanFrame f;
    f.id = schedule[i % 3];
    f.data = Bytes(8);
    d.train(f, t);
    t = t + SimTime::from_ms(5);
  }
  d.finish_training();
  // Live traffic following the schedule stays quiet.
  for (int i = 0; i < 30; ++i) {
    CanFrame f;
    f.id = schedule[i % 3];
    f.data = Bytes(8);
    EXPECT_LT(d.observe(f, t), 1.0) << i;
    t = t + SimTime::from_ms(5);
  }
  // A duplicated 0x100 right after a legitimate 0x100 (classic back-to-back
  // injection) creates the never-seen transition 0x100 -> 0x100.
  CanFrame f1;
  f1.id = 0x100;
  f1.data = Bytes(8);
  d.observe(f1, t);  // 0x300 -> 0x100: known, quiet
  CanFrame inj;
  inj.id = 0x100;
  inj.data = Bytes(8);
  EXPECT_GE(d.observe(inj, t), 1.0);
}

TEST(SequenceDetector, InjectionBetweenScheduledFramesCaught) {
  SequenceDetector d;
  const std::uint32_t schedule[] = {0x100, 0x200, 0x300};
  SimTime t = SimTime::zero();
  for (int i = 0; i < 120; ++i) {
    CanFrame f;
    f.id = schedule[i % 3];
    f.data = Bytes(8);
    d.train(f, t);
  }
  // live: 0x100, then injected 0x300 (legitimate id, wrong position).
  CanFrame a;
  a.id = 0x100;
  a.data = Bytes(8);
  EXPECT_LT(d.observe(a, t), 1.0);
  CanFrame b;
  b.id = 0x300;
  b.data = Bytes(8);
  EXPECT_GE(d.observe(b, t), 1.0);  // 0x100 -> 0x300 never seen in training
}

TEST(SequenceDetector, QuietWithoutEnoughTraining) {
  SequenceDetector d(1000);
  CanFrame f;
  f.id = 1;
  f.data = Bytes(8);
  d.train(f, SimTime::zero());
  d.train(f, SimTime::zero());
  EXPECT_EQ(d.observe(f, SimTime::zero()), 0.0);
  EXPECT_EQ(d.observe(f, SimTime::zero()), 0.0);
}

}  // namespace
}  // namespace aseck::ids
