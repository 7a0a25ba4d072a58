#include "adas/redundancy.hpp"

#include <cmath>
#include <stdexcept>

namespace aseck::adas {

namespace {
/// Association gates: detections from the two channels within both gates
/// are the same physical object.
constexpr double kRangeGateM = 2.0;
constexpr double kSpeedGateMps = 1.5;
/// Confidence multiplier applied in single-channel degraded mode.
constexpr double kDegradedConfidence = 0.5;
/// Consecutive disagreeing 2oo2 frames before the plausibility alarm
/// latches (transient noise should not alarm).
constexpr std::uint32_t kDisagreeAlarmThreshold = 3;
}  // namespace

DualChannelVoter::DualChannelVoter(PerceptionSensor* channel_a,
                                   PerceptionSensor* channel_b)
    : a_(channel_a), b_(channel_b) {
  if (!a_ || !b_) {
    throw std::invalid_argument("DualChannelVoter: null channel");
  }
}

void DualChannelVoter::set_channel_failed(int channel, bool failed) {
  if (channel < 0 || channel > 1) {
    throw std::invalid_argument("DualChannelVoter: channel must be 0 or 1");
  }
  failed_[channel] = failed;
}

DualChannelVoter::Output DualChannelVoter::sample(
    const std::vector<TruthObject>& truth) {
  // A failed channel is not even sampled (its output is untrusted anyway,
  // and skipping keeps each channel's RNG stream aligned with its health).
  std::vector<Detection> da, db;
  if (!failed_[0]) da = a_->sense(truth);
  if (!failed_[1]) db = b_->sense(truth);
  return vote(da, db);
}

DualChannelVoter::Output DualChannelVoter::vote(
    const std::vector<Detection>& a, const std::vector<Detection>& b) {
  Output out;
  if (failed_[0] && failed_[1]) {
    out.verdict = VoteVerdict::kNoData;
    return out;
  }
  if (failed_[0] || failed_[1]) {
    const std::vector<Detection>& survivor = failed_[0] ? b : a;
    out.detections = survivor;
    for (Detection& d : out.detections) d.confidence *= kDegradedConfidence;
    out.verdict = VoteVerdict::kDegradedSingle;
    out.matched = out.detections.size();
    ++degraded_;
    return out;
  }
  // 2oo2: greedy nearest-neighbor association inside the gates.
  std::vector<bool> used_b(b.size(), false);
  for (const Detection& da : a) {
    std::size_t best = b.size();
    double best_dist = kRangeGateM;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (used_b[j]) continue;
      const double dr = std::fabs(da.range_m - b[j].range_m);
      const double dv = std::fabs(da.rel_speed_mps - b[j].rel_speed_mps);
      if (dr <= best_dist && dv <= kSpeedGateMps) {
        best = j;
        best_dist = dr;
      }
    }
    if (best < b.size()) {
      used_b[best] = true;
      Detection fused;
      fused.range_m = 0.5 * (da.range_m + b[best].range_m);
      fused.bearing_rad = 0.5 * (da.bearing_rad + b[best].bearing_rad);
      fused.rel_speed_mps = 0.5 * (da.rel_speed_mps + b[best].rel_speed_mps);
      fused.confidence = std::min(da.confidence, b[best].confidence);
      out.detections.push_back(fused);
      ++out.matched;
    } else {
      ++out.unmatched_a;
    }
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    if (!used_b[j]) ++out.unmatched_b;
  }
  suppressed_ += out.unmatched_a + out.unmatched_b;
  if (out.unmatched_a == 0 && out.unmatched_b == 0) {
    out.verdict = VoteVerdict::kAgree;
    ++agreed_;
    disagree_streak_ = 0;
  } else {
    out.verdict = VoteVerdict::kDisagree;
    ++disagreed_;
    if (++disagree_streak_ >= kDisagreeAlarmThreshold) alarm_ = true;
  }
  return out;
}

}  // namespace aseck::adas
