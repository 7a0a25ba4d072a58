#pragma once
// CAN intrusion detection: the detector families the automotive IDS
// literature (and the paper's Secure Networks layer) builds on:
//
//  * FrequencyDetector — learns per-ID inter-arrival statistics in a training
//    phase; flags messages arriving much faster than the learned cadence
//    (injection/flood attacks change timing before anything else).
//  * PayloadEntropyDetector — learns which payload bytes are constant /
//    low-variance per ID; flags frames whose bytes fall outside the learned
//    value set (fuzzing, spoofed implausible values).
//  * SpecRuleDetector — specification-based allowlist: known IDs, expected
//    DLC, optional byte-range constraints.
//  * IdsEnsemble — OR-combination with per-detector attribution and
//    TP/FP/FN/TN scoring against ground-truth labels (used by experiment E7).

#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ivn/can.hpp"
#include "sim/telemetry.hpp"
#include "util/stats.hpp"

namespace aseck::ids {

using ivn::CanFrame;
using sim::SimTime;

/// Common detector interface. Detectors are trained on benign traffic, then
/// score live frames; score >= 1.0 means "alert".
class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string name() const = 0;
  virtual void train(const CanFrame& frame, SimTime at) = 0;
  /// Finalize training (compute statistics).
  virtual void finish_training() {}
  /// Returns an anomaly score; >= 1.0 raises an alert.
  virtual double observe(const CanFrame& frame, SimTime at) = 0;
};

class FrequencyDetector : public Detector {
 public:
  /// `sensitivity`: alert when the observed interval is shorter than
  /// (mean - sensitivity * stddev) — smaller = more aggressive.
  explicit FrequencyDetector(double sensitivity = 4.0)
      : sensitivity_(sensitivity) {}

  std::string name() const override { return "frequency"; }
  void train(const CanFrame& frame, SimTime at) override;
  void finish_training() override;
  double observe(const CanFrame& frame, SimTime at) override;

 private:
  struct PerId {
    util::RunningStats intervals;  // seconds
    std::optional<SimTime> last_train;
    std::optional<SimTime> last_live;
    double floor_s = 0;  // learned minimum legitimate interval
  };
  double sensitivity_;
  std::map<std::uint32_t, PerId> ids_;
};

class PayloadEntropyDetector : public Detector {
 public:
  std::string name() const override { return "payload"; }
  void train(const CanFrame& frame, SimTime at) override;
  double observe(const CanFrame& frame, SimTime at) override;

 private:
  struct PerId {
    // Observed value set per byte position; positions with few distinct
    // values are "structured" and deviations there are suspicious.
    std::vector<std::bitset<256>> values;
    std::size_t samples = 0;
  };
  std::map<std::uint32_t, PerId> ids_;
};

/// Sequence-based detector: learns the first-order Markov transition set of
/// CAN ids (which id follows which on the bus — stable for schedule-driven
/// traffic). Injected frames create transitions never seen in training.
/// Complements frequency analysis: catches single injected frames whose
/// id and payload look legitimate but that break the arbitration pattern.
class SequenceDetector : public Detector {
 public:
  /// `min_training_transitions`: below this, observe() stays quiet.
  explicit SequenceDetector(std::size_t min_training_transitions = 64)
      : min_transitions_(min_training_transitions) {}

  std::string name() const override { return "sequence"; }
  void train(const CanFrame& frame, SimTime at) override;
  double observe(const CanFrame& frame, SimTime at) override;

 private:
  std::size_t min_transitions_;
  std::size_t trained_ = 0;
  std::optional<std::uint32_t> last_train_id_;
  std::optional<std::uint32_t> last_live_id_;
  std::set<std::uint64_t> transitions_;  // (prev << 32) | next
};

class SpecRuleDetector : public Detector {
 public:
  struct Rule {
    std::size_t dlc = 8;
    /// Optional inclusive range constraint per byte index.
    std::map<std::size_t, std::pair<std::uint8_t, std::uint8_t>> byte_ranges;
  };

  std::string name() const override { return "spec"; }
  /// Spec detectors are configured, not trained; training frames only add
  /// IDs to the allowlist with their observed DLC.
  void train(const CanFrame& frame, SimTime at) override;
  double observe(const CanFrame& frame, SimTime at) override;

  void add_rule(std::uint32_t id, Rule rule) { rules_[id] = std::move(rule); }

 private:
  std::map<std::uint32_t, Rule> rules_;
};

/// Labeled evaluation outcome counters.
struct IdsScore {
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  double precision() const {
    return tp + fp == 0 ? 0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  }
  double recall() const {
    return tp + fn == 0 ? 0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  }
  double f1() const {
    const double p = precision(), r = recall();
    return p + r == 0 ? 0 : 2 * p * r / (p + r);
  }
  double fpr() const {
    return fp + tn == 0 ? 0 : static_cast<double>(fp) / static_cast<double>(fp + tn);
  }
};

class IdsEnsemble {
 public:
  /// Counts and traces onto `telemetry` (default: a fresh private plane).
  explicit IdsEnsemble(const sim::Telemetry& telemetry = {});
  void add(std::unique_ptr<Detector> d) { detectors_.push_back(std::move(d)); }

  void train(const CanFrame& frame, SimTime at);
  void finish_training();

  struct Verdict {
    bool alert = false;
    double max_score = 0;
    std::string detector;  // which detector fired
  };
  Verdict observe(const CanFrame& frame, SimTime at);

  /// Observe with a ground-truth label; updates the score counters.
  Verdict observe_labeled(const CanFrame& frame, SimTime at, bool is_attack);

  const IdsScore& score() const { return score_; }
  void reset_score() { score_ = {}; }
  std::size_t detector_count() const { return detectors_.size(); }

  /// Benchmark-only: re-seats the ensemble on `t` and re-resolves its
  /// counters. Nothing is carried over, so call it before the first
  /// observe. Its one caller is benchmark/vehicle_path.cpp; everything else
  /// builds the ensemble on its plane.
  void bind_telemetry(const sim::Telemetry& t);

 private:
  /// Caches the counters and the alert kind of the scope's plane.
  void resolve_telemetry();

  std::vector<std::unique_ptr<Detector>> detectors_;
  IdsScore score_;
  sim::TraceScope trace_;
  sim::Counter* c_observed_ = nullptr;
  sim::Counter* c_alerts_ = nullptr;
  sim::Counter* c_tp_ = nullptr;
  sim::Counter* c_fp_ = nullptr;
  sim::Counter* c_fn_ = nullptr;
  sim::Counter* c_tn_ = nullptr;
  sim::TraceId k_alert_ = 0;
};

/// Convenience: ensemble with the three classic detectors at default
/// settings (frequency, payload, specification), built on `telemetry`.
IdsEnsemble make_default_ensemble(const sim::Telemetry& telemetry = {});
/// Extended ensemble adding the sequence (Markov-transition) detector.
IdsEnsemble make_extended_ensemble(const sim::Telemetry& telemetry = {});

}  // namespace aseck::ids
