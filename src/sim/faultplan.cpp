#include "sim/faultplan.hpp"

#include <algorithm>
#include <cstdio>

namespace aseck::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kFrameDrop: return "frame_drop";
    case FaultKind::kFrameCorrupt: return "frame_corrupt";
    case FaultKind::kFrameDelay: return "frame_delay";
    case FaultKind::kFrameDuplicate: return "frame_duplicate";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kRadioLoss: return "radio_loss";
    case FaultKind::kOutage: return "outage";
    case FaultKind::kPowerLoss: return "power_loss";
    case FaultKind::kMalformedFrame: return "malformed_frame";
    case FaultKind::kRepoSlowdown: return "repo_slowdown";
  }
  return "?";
}

bool fault_kind_auto_recovers(FaultKind k) {
  switch (k) {
    case FaultKind::kFrameDrop:
    case FaultKind::kFrameCorrupt:
    case FaultKind::kFrameDelay:
    case FaultKind::kFrameDuplicate:
    case FaultKind::kRadioLoss:
    case FaultKind::kMalformedFrame:
    case FaultKind::kRepoSlowdown:
      return true;
    case FaultKind::kCrash:
    case FaultKind::kPartition:
    case FaultKind::kOutage:
    case FaultKind::kPowerLoss:  // the ECU stays dark until boot() recovery
      return false;
  }
  return false;
}

FaultPlan::FaultPlan(Scheduler& sched, std::uint64_t seed,
                     const Telemetry& telemetry)
    : sched_(sched),
      seed_(seed),
      rng_(seed),
      trace_("faultplan", "faultplan.", telemetry) {}

FaultPort& FaultPlan::port(const std::string& target) {
  auto it = ports_.find(target);
  if (it == ports_.end()) {
    it = ports_.emplace(target, std::unique_ptr<FaultPort>(new FaultPort(rng_)))
             .first;
  }
  return *it->second;
}

void FaultPlan::on(const std::string& target, FaultKind kind, Handler h) {
  handlers_[HandlerKey{target, kind}].push_back(std::move(h));
}

void FaultPlan::apply(const FaultSpec& spec, bool begin) {
  FaultPort& p = port(spec.target);
  const double d = begin ? spec.probability : -spec.probability;
  const auto bump = [d](double& v) {
    v += d;
    if (v < 1e-12) v = 0;
    if (v > 1.0) v = 1.0;
  };
  switch (spec.kind) {
    case FaultKind::kFrameDrop: bump(p.drop_p_); break;
    case FaultKind::kFrameCorrupt: bump(p.corrupt_p_); break;
    case FaultKind::kFrameDuplicate: bump(p.dup_p_); break;
    case FaultKind::kFrameDelay:
      bump(p.delay_p_);
      if (begin) p.delay_ = spec.delay;
      break;
    case FaultKind::kCrash:
    case FaultKind::kPartition:
    case FaultKind::kRadioLoss:
    case FaultKind::kOutage:
      p.down_ = std::max(0, p.down_ + (begin ? 1 : -1));
      break;
    case FaultKind::kPowerLoss:
      bump(p.power_loss_p_);
      if (begin) {
        p.power_cut_at_ = spec.page_index;
        p.write_ops_ = 0;
      } else {
        p.power_cut_at_ = -1;
      }
      break;
    case FaultKind::kMalformedFrame:
      bump(p.malformed_p_);
      if (begin) {
        p.malformed_ = spec.payload;
      } else if (p.malformed_p_ <= 0) {
        p.malformed_.clear();
      }
      break;
    case FaultKind::kRepoSlowdown:
      // Overlapping windows stack; the subtraction is exact because ns are
      // integers, but clamp anyway against a mismatched begin/end pair.
      if (begin) {
        p.slowdown_ += spec.delay;
      } else {
        p.slowdown_ = spec.delay.ns >= p.slowdown_.ns
                          ? util::SimTime::zero()
                          : p.slowdown_ - spec.delay;
      }
      break;
  }
  const auto hit = handlers_.find(HandlerKey{spec.target, spec.kind});
  if (hit != handlers_.end()) {
    for (const Handler& h : hit->second) h(spec, begin);
  }
}

void FaultPlan::begin_fault(std::uint64_t id) {
  FaultRecord& r = records_[id - 1];
  r.injected = true;
  r.injected_at = sched_.now();
  c_injected_.inc();
  ASECK_TRACE(trace_, sched_.now(), k_inject_,
              r.spec.target + " kind=" + fault_kind_name(r.spec.kind) +
                  " id=" + std::to_string(id));
  apply(r.spec, true);
}

void FaultPlan::end_fault(std::uint64_t id) {
  FaultRecord& r = records_[id - 1];
  apply(r.spec, false);
  r.cleared = true;
  r.cleared_at = sched_.now();
  c_cleared_.inc();
  ASECK_TRACE(trace_, sched_.now(), k_clear_,
              r.spec.target + " kind=" + fault_kind_name(r.spec.kind) +
                  " id=" + std::to_string(id));
  if (fault_kind_auto_recovers(r.spec.kind) && !r.recovered) {
    // The channel is healthy the moment the window clears.
    r.recovered = true;
    r.recovered_at = r.cleared_at;
    c_recovered_.inc();
    h_recovery_ms_.record(r.recovery_latency().ms());
    ASECK_TRACE(trace_, sched_.now(), k_recovered_,
                r.spec.target + " id=" + std::to_string(id));
  }
}

std::uint64_t FaultPlan::window(util::SimTime at, util::SimTime duration,
                                FaultSpec spec) {
  FaultRecord r;
  r.id = records_.size() + 1;
  r.spec = std::move(spec);
  records_.push_back(std::move(r));
  const std::uint64_t id = records_.back().id;
  sched_.schedule_at(at, [this, id] { begin_fault(id); });
  sched_.schedule_at(at + duration, [this, id] { end_fault(id); });
  return id;
}

std::vector<std::uint64_t> FaultPlan::random_campaign(
    util::SimTime start, util::SimTime horizon, double rate_hz,
    util::SimTime duration, const std::vector<FaultSpec>& specs) {
  std::vector<std::uint64_t> ids;
  if (specs.empty() || rate_hz <= 0) return ids;
  // All randomness is drawn *now*, in one deterministic burst, so the
  // arrival script does not interleave with per-frame port rolls.
  util::SimTime t = start;
  while (true) {
    t += util::SimTime::from_seconds_f(rng_.exponential(rate_hz));
    if (t >= horizon) break;
    ids.push_back(window(t, duration, specs[rng_.index(specs.size())]));
  }
  return ids;
}

std::size_t FaultPlan::notify_recovered(const std::string& target) {
  std::size_t n = 0;
  for (FaultRecord& r : records_) {
    if (!r.injected || r.recovered || r.spec.target != target) continue;
    r.recovered = true;
    r.recovered_at = sched_.now();
    c_recovered_.inc();
    h_recovery_ms_.record(r.recovery_latency().ms());
    ASECK_TRACE(trace_, sched_.now(), k_recovered_,
                target + " id=" + std::to_string(r.id));
    ++n;
  }
  return n;
}

std::size_t FaultPlan::injected() const {
  std::size_t n = 0;
  for (const FaultRecord& r : records_) n += r.injected ? 1 : 0;
  return n;
}

std::size_t FaultPlan::recovered() const {
  std::size_t n = 0;
  for (const FaultRecord& r : records_) n += r.recovered ? 1 : 0;
  return n;
}

std::string FaultPlan::to_json() const {
  std::string out = "{\"seed\":" + std::to_string(seed_) + ",\"faults\":[";
  bool first = true;
  for (const FaultRecord& r : records_) {
    if (!first) out += ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%llu,\"target\":\"%s\",\"kind\":\"%s\","
                  "\"injected_ns\":%llu,\"cleared_ns\":%llu,"
                  "\"recovered\":%s,\"recovery_ms\":%.3f}",
                  static_cast<unsigned long long>(r.id), r.spec.target.c_str(),
                  fault_kind_name(r.spec.kind),
                  static_cast<unsigned long long>(r.injected_at.ns),
                  static_cast<unsigned long long>(r.cleared_at.ns),
                  r.recovered ? "true" : "false", r.recovery_latency().ms());
    out += buf;
  }
  out += "],\"injected\":" + std::to_string(injected()) +
         ",\"recovered\":" + std::to_string(recovered()) +
         ",\"unrecovered\":" + std::to_string(unrecovered()) + "}";
  return out;
}

}  // namespace aseck::sim
