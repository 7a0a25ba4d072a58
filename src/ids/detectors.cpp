#include "ids/detectors.hpp"

#include <algorithm>

namespace aseck::ids {

void FrequencyDetector::train(const CanFrame& frame, SimTime at) {
  PerId& st = ids_[frame.id];
  if (st.last_train) {
    st.intervals.add((at - *st.last_train).seconds());
  }
  st.last_train = at;
}

void FrequencyDetector::finish_training() {
  for (auto& [id, st] : ids_) {
    const double floor =
        st.intervals.mean() - sensitivity_ * st.intervals.stddev();
    // Never let the floor collapse to zero for periodic traffic: half the
    // learned minimum interval is a conservative lower bound.
    st.floor_s = std::max(floor, st.intervals.min() * 0.5);
  }
}

double FrequencyDetector::observe(const CanFrame& frame, SimTime at) {
  const auto it = ids_.find(frame.id);
  if (it == ids_.end()) return 1.5;  // unknown ID is itself anomalous
  PerId& st = it->second;
  double score = 0.0;
  if (st.last_live && st.intervals.count() >= 2 && st.floor_s > 0) {
    const double interval = (at - *st.last_live).seconds();
    if (interval < st.floor_s) {
      score = st.floor_s / std::max(interval, 1e-9);  // >1 when too fast
    }
  }
  st.last_live = at;
  return score;
}

void PayloadEntropyDetector::train(const CanFrame& frame, SimTime) {
  PerId& st = ids_[frame.id];
  if (st.values.size() < frame.data.size()) st.values.resize(frame.data.size());
  for (std::size_t i = 0; i < frame.data.size(); ++i) {
    st.values[i].set(frame.data[i]);
  }
  ++st.samples;
}

double PayloadEntropyDetector::observe(const CanFrame& frame, SimTime) {
  const auto it = ids_.find(frame.id);
  if (it == ids_.end()) return 1.5;
  const PerId& st = it->second;
  if (st.samples < 8) return 0.0;  // insufficient model
  if (frame.data.size() != st.values.size()) return 2.0;  // DLC change
  double worst = 0.0;
  for (std::size_t i = 0; i < frame.data.size(); ++i) {
    const auto& seen = st.values[i];
    if (seen.test(frame.data[i])) continue;
    // Unseen value at a structured (low-cardinality) position is suspicious;
    // at a high-entropy position it is expected.
    const std::size_t cardinality = seen.count();
    const double score = cardinality <= 4 ? 2.0 : (cardinality <= 32 ? 1.2 : 0.2);
    worst = std::max(worst, score);
  }
  return worst;
}

void SequenceDetector::train(const CanFrame& frame, SimTime) {
  if (last_train_id_) {
    transitions_.insert((static_cast<std::uint64_t>(*last_train_id_) << 32) |
                        frame.id);
    ++trained_;
  }
  last_train_id_ = frame.id;
}

double SequenceDetector::observe(const CanFrame& frame, SimTime) {
  double score = 0.0;
  if (last_live_id_ && trained_ >= min_transitions_) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(*last_live_id_) << 32) | frame.id;
    if (!transitions_.count(key)) score = 1.2;
  }
  last_live_id_ = frame.id;
  return score;
}

void SpecRuleDetector::train(const CanFrame& frame, SimTime) {
  auto it = rules_.find(frame.id);
  if (it == rules_.end()) {
    Rule r;
    r.dlc = frame.data.size();
    rules_[frame.id] = r;
  }
}

double SpecRuleDetector::observe(const CanFrame& frame, SimTime) {
  const auto it = rules_.find(frame.id);
  if (it == rules_.end()) return 2.0;  // ID not in the allowlist
  const Rule& r = it->second;
  if (frame.data.size() != r.dlc) return 2.0;
  for (const auto& [idx, range] : r.byte_ranges) {
    if (idx >= frame.data.size()) return 2.0;
    if (frame.data[idx] < range.first || frame.data[idx] > range.second) {
      return 1.5;
    }
  }
  return 0.0;
}

IdsEnsemble::IdsEnsemble(const sim::Telemetry& telemetry)
    : trace_("ids", "ids.", telemetry) {
  resolve_telemetry();
}

void IdsEnsemble::resolve_telemetry() {
  c_observed_ = &trace_.counter("observed");
  c_alerts_ = &trace_.counter("alerts");
  c_tp_ = &trace_.counter("tp");
  c_fp_ = &trace_.counter("fp");
  c_fn_ = &trace_.counter("fn");
  c_tn_ = &trace_.counter("tn");
  k_alert_ = trace_.kind("alert");
}

void IdsEnsemble::bind_telemetry(const sim::Telemetry& t) {
  trace_ = sim::TraceScope("ids", "ids.", t);
  resolve_telemetry();
}

void IdsEnsemble::train(const CanFrame& frame, SimTime at) {
  for (auto& d : detectors_) d->train(frame, at);
}

void IdsEnsemble::finish_training() {
  for (auto& d : detectors_) d->finish_training();
}

IdsEnsemble::Verdict IdsEnsemble::observe(const CanFrame& frame, SimTime at) {
  Verdict v;
  for (auto& d : detectors_) {
    const double s = d->observe(frame, at);
    if (s > v.max_score) {
      v.max_score = s;
      v.detector = d->name();
    }
  }
  v.alert = v.max_score >= 1.0;
  c_observed_->inc();
  if (v.alert) {
    c_alerts_->inc();
    ASECK_TRACE(trace_, at, k_alert_,
                "id=" + std::to_string(frame.id) + " detector=" + v.detector);
  }
  return v;
}

IdsEnsemble::Verdict IdsEnsemble::observe_labeled(const CanFrame& frame,
                                                  SimTime at, bool is_attack) {
  const Verdict v = observe(frame, at);
  if (is_attack) {
    v.alert ? ++score_.tp : ++score_.fn;
    v.alert ? c_tp_->inc() : c_fn_->inc();
  } else {
    v.alert ? ++score_.fp : ++score_.tn;
    v.alert ? c_fp_->inc() : c_tn_->inc();
  }
  return v;
}

IdsEnsemble make_default_ensemble(const sim::Telemetry& telemetry) {
  IdsEnsemble e(telemetry);
  e.add(std::make_unique<FrequencyDetector>());
  e.add(std::make_unique<PayloadEntropyDetector>());
  e.add(std::make_unique<SpecRuleDetector>());
  return e;
}

IdsEnsemble make_extended_ensemble(const sim::Telemetry& telemetry) {
  IdsEnsemble e = make_default_ensemble(telemetry);
  e.add(std::make_unique<SequenceDetector>());
  return e;
}

}  // namespace aseck::ids
