#pragma once
// Dual-channel redundant sensing with 2oo2 plausibility voting (paper §2
// driver assistance + §3 safety/security interplay). Safety-critical ADAS
// inputs are duplicated across two independent sensor channels; the voter
// cross-checks them per frame:
//
//   * both channels healthy  -> 2oo2: only detections corroborated by both
//     channels (within 2 m range and 1.5 m/s speed) pass, averaged, at full
//     confidence. Unmatched detections on either side are suppressed
//     (fail-safe: a ghost injected into one channel is *not* acted on) and
//     a mismatch in 3 consecutive frames raises the plausibility alarm
//     (transient noise should not alarm);
//   * one channel failed (flagged by the safety::HealthSupervisor via
//     `set_channel_failed`) -> 1oo1 degraded: the surviving channel passes
//     through with its confidence halved, so consumers (AEB) can demand
//     corroboration elsewhere or lengthen their thresholds;
//   * both channels failed  -> no data (the consumer must fail safe).
//
// This is the sensing-side counterpart of the gateway's hot-standby pair:
// redundancy plus supervision turns "survive the fault" into "detect,
// isolate, and keep a quantified residual capability".

#include <cstdint>
#include <vector>

#include "adas/sensors.hpp"

namespace aseck::adas {

enum class VoteVerdict {
  kAgree,           // 2oo2: channels corroborate
  kDisagree,        // 2oo2: at least one uncorroborated detection suppressed
  kDegradedSingle,  // 1oo1: one channel failed, survivor passed through
  kNoData,          // both channels failed
};

class DualChannelVoter {
 public:
  DualChannelVoter(PerceptionSensor* channel_a, PerceptionSensor* channel_b);

  /// Marks a channel failed/recovered (0 = A, 1 = B); wired to the
  /// supervisor's status handler.
  void set_channel_failed(int channel, bool failed);

  struct Output {
    std::vector<Detection> detections;
    VoteVerdict verdict = VoteVerdict::kNoData;
    std::size_t matched = 0;      // corroborated pairs
    std::size_t unmatched_a = 0;  // suppressed A-only detections
    std::size_t unmatched_b = 0;  // suppressed B-only detections
  };

  /// Samples both sensors against the truth scene and votes.
  Output sample(const std::vector<TruthObject>& truth);
  /// Pure voting over already-sampled channel outputs.
  Output vote(const std::vector<Detection>& a, const std::vector<Detection>& b);

  std::uint64_t frames_agreed() const { return agreed_; }
  std::uint64_t frames_disagreed() const { return disagreed_; }
  std::uint64_t frames_degraded() const { return degraded_; }
  std::uint64_t suppressed_detections() const { return suppressed_; }
  /// Latched after 3 consecutive mismatching frames.
  bool plausibility_alarm() const { return alarm_; }

 private:
  PerceptionSensor* a_;
  PerceptionSensor* b_;
  bool failed_[2] = {false, false};
  std::uint64_t agreed_ = 0;
  std::uint64_t disagreed_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint32_t disagree_streak_ = 0;
  bool alarm_ = false;
};

}  // namespace aseck::adas
