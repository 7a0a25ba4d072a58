#pragma once
// Deterministic fault-injection engine — the chaos plane of the simulator.
//
// The paper's §3 (safety/security/reliability interplay) and §6
// (extensibility challenges) argue that defenses must survive degraded
// channels; this engine is how we *generate* those degraded channels on
// demand and measure recovery. One `FaultPlan` owns a single seeded RNG and
// schedules scripted or randomized fault windows against named targets:
//
//   * frame-level channel faults (drop / corrupt / delay / duplicate) —
//     consulted by the bus models through a per-target `FaultPort`;
//   * stateful outages (ECU crash, gateway link partition, V2X radio-loss
//     burst, OTA repository unavailability) — dispatched to registered
//     handlers and reflected in the port's `down()` window.
//
// Every injection, clearance, and recovery is recorded on the shared
// TraceBus, so cause -> degradation -> recovery lands on one causal
// timeline next to the substrate's own events (bus_off, mode_degraded,
// fetch_resume, ...). `to_json()` exports the fault ledger
// deterministically: same seed, same script => bit-identical output, which
// is what `bench_e15_resilience` and the `determinism.e15` ctest assert.
//
// Layering: this file lives in sim/ and knows nothing about CAN, the
// gateway, or OTA. Substrates opt in by deriving from `FaultHook` (ivn::CanBus,
// ota::Repository, ...; each class doc says which faults it honors) or by
// registering a handler (`plan.on("gw.link.body", FaultKind::kPartition,
// ...)`) that calls into their own degradation API.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aseck::sim {

enum class FaultKind {
  kFrameDrop,       // frame vanishes on the wire
  kFrameCorrupt,    // frame payload/CRC destroyed
  kFrameDelay,      // frame delivered late
  kFrameDuplicate,  // frame delivered twice (replay/echo)
  kCrash,           // component dead for the window (ECU crash-and-restart)
  kPartition,       // link partition (e.g. gateway <-> domain bus)
  kRadioLoss,       // V2X radio loss burst
  kOutage,          // service unavailability (OTA repository)
  kPowerLoss,       // power cut during a flash write (install / commit marker)
  kMalformedFrame,  // frame payload replaced by an attack-corpus entry
  kRepoSlowdown,    // service-latency inflation (overloaded/brown-out backend)
};
const char* fault_kind_name(FaultKind k);

/// True for kinds whose effect ends with the window itself (the channel is
/// healthy the instant the window clears); stateful kinds need an explicit
/// `FaultPlan::notify_recovered` from the component or the harness.
bool fault_kind_auto_recovers(FaultKind k);

/// One fault to inject against a registered target name.
struct FaultSpec {
  std::string target;                    // e.g. "can.powertrain", "ota.director"
  FaultKind kind = FaultKind::kFrameDrop;
  double probability = 1.0;              // per-frame kinds: P(frame affected)
  /// kFrameDelay: added frame latency. kRepoSlowdown: extra service latency
  /// added to every request the target handles while the window is active —
  /// a brown-out is latency inflation, not a binary outage, so a serving
  /// front walks its degradation ladder instead of flipping to down().
  /// Overlapping slowdown windows stack additively.
  util::SimTime delay = util::SimTime::zero();
  /// kPowerLoss only: cut power at exactly this write-op index (page program
  /// or header write, counted from the window start). -1 = no exact index;
  /// with `probability` < 1 each write op instead rolls Bernoulli(p) — the
  /// "Poisson-per-page" mode. Exact-index cuts fire regardless of
  /// `probability` (set probability = 0 for a purely scripted cut).
  std::int64_t page_index = -1;
  /// kMalformedFrame only: the raw bytes spliced into affected frames.
  /// Chaos campaigns point this at a frozen `attacks::ScenarioCorpus` entry
  /// so fuzzer-found malformed inputs ride live traffic windows.
  util::Bytes payload{};
};

/// Live per-target fault state, consulted by a substrate on its hot path.
/// All randomness draws from the owning plan's single seeded RNG, and a roll
/// with zero probability consumes no randomness — an idle port is free and
/// leaves the RNG stream untouched.
class FaultPort {
 public:
  bool roll_drop() { return drop_p_ > 0 && rng_->chance(drop_p_); }
  bool roll_corrupt() { return corrupt_p_ > 0 && rng_->chance(corrupt_p_); }
  bool roll_duplicate() { return dup_p_ > 0 && rng_->chance(dup_p_); }
  /// Zero when no delay fault is active (or the roll misses).
  util::SimTime roll_delay() {
    return (delay_p_ > 0 && rng_->chance(delay_p_)) ? delay_
                                                    : util::SimTime::zero();
  }
  /// Non-null when a kMalformedFrame window is active and the roll hits:
  /// the substrate should replace the outgoing frame's payload with these
  /// bytes (clamped to whatever lengths its wire format allows).
  const util::Bytes* roll_malformed() {
    return (malformed_p_ > 0 && rng_->chance(malformed_p_)) ? &malformed_
                                                            : nullptr;
  }
  /// Inside a kCrash/kPartition/kRadioLoss/kOutage window.
  bool down() const { return down_ > 0; }
  /// Summed extra service latency of all active kRepoSlowdown windows
  /// (zero when none); a serving front adds this to each request it handles.
  util::SimTime service_slowdown() const { return slowdown_; }
  /// One persistent flash write op is about to happen; true = the power cut
  /// hits this write. Counts write ops so an exact `page_index` cut lands on
  /// precisely one op; otherwise rolls Bernoulli(power_loss_p_) per op
  /// (drawing no randomness when the probability is zero).
  bool consume_power_loss() {
    const std::uint64_t idx = write_ops_++;
    if (power_cut_at_ >= 0 && static_cast<std::uint64_t>(power_cut_at_) == idx) {
      return true;
    }
    return power_loss_p_ > 0 && rng_->chance(power_loss_p_);
  }
  /// Write ops observed since the last kPowerLoss window began.
  std::uint64_t write_ops() const { return write_ops_; }
  /// Any fault currently armed on this port.
  bool active() const {
    return down_ > 0 || drop_p_ > 0 || corrupt_p_ > 0 || dup_p_ > 0 ||
           delay_p_ > 0 || power_loss_p_ > 0 || power_cut_at_ >= 0 ||
           malformed_p_ > 0 || slowdown_.ns > 0;
  }

 private:
  friend class FaultPlan;
  explicit FaultPort(util::Rng& rng) : rng_(&rng) {}
  double drop_p_ = 0, corrupt_p_ = 0, dup_p_ = 0, delay_p_ = 0;
  double malformed_p_ = 0;
  util::Bytes malformed_;
  double power_loss_p_ = 0;
  std::int64_t power_cut_at_ = -1;  // exact write-op index; -1 = disabled
  std::uint64_t write_ops_ = 0;    // write ops seen in the current window
  util::SimTime delay_ = util::SimTime::zero();
  util::SimTime slowdown_ = util::SimTime::zero();  // summed active inflation
  int down_ = 0;  // nesting count of overlapping stateful windows
  util::Rng* rng_;
};

/// The one fault port a substrate consults on its hot path, attached by the
/// harness (usually `&plan.port(target)`); nullptr, the default, detaches.
class FaultHook {
 public:
  void set_fault_port(FaultPort* port) { fault_port_ = port; }

 protected:
  FaultPort* fault_port_ = nullptr;
};

/// Ledger entry for one injected fault.
struct FaultRecord {
  std::uint64_t id = 0;
  FaultSpec spec;
  util::SimTime injected_at = util::SimTime::zero();
  util::SimTime cleared_at = util::SimTime::zero();
  util::SimTime recovered_at = util::SimTime::zero();
  bool injected = false;  // begin event fired
  bool cleared = false;
  bool recovered = false;
  /// Injection -> recovery (zero until recovered).
  util::SimTime recovery_latency() const {
    return recovered ? recovered_at - injected_at : util::SimTime::zero();
  }
};

/// Result schema shared by bus-level fault campaigns and the safety layer's
/// Monte-Carlo ASIL campaigns (`safety::run_fault_campaign`): one seeded RNG
/// feeds both, and both report failures per named function/target.
struct FaultCampaignResult {
  std::uint64_t trials = 0;
  std::map<std::string, std::uint64_t> function_failures;
  double failure_rate(const std::string& fn) const {
    const auto it = function_failures.find(fn);
    return trials == 0 || it == function_failures.end()
               ? 0.0
               : static_cast<double>(it->second) / static_cast<double>(trials);
  }
};

class FaultPlan {
 public:
  FaultPlan(Scheduler& sched, std::uint64_t seed, const Telemetry& telemetry = {});
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Current sim time of the driving scheduler (for event annotations by
  /// consumers that do not hold the scheduler themselves).
  SimTime now() const { return sched_.now(); }
  /// The plan's single RNG stream; all injection randomness flows through it.
  util::Rng& rng() { return rng_; }

  /// Per-target channel-fault state; created on first use. The returned
  /// reference is stable for the plan's lifetime, so substrates may cache it.
  FaultPort& port(const std::string& target);

  /// Handler invoked at fault begin (`active=true`) and window end
  /// (`active=false`). Multiple handlers per (target, kind) are allowed.
  using Handler = std::function<void(const FaultSpec&, bool active)>;
  void on(const std::string& target, FaultKind kind, Handler h);

  /// Schedules `spec` active over [at, at+duration). Returns the fault id.
  std::uint64_t window(util::SimTime at, util::SimTime duration, FaultSpec spec);

  /// Randomized campaign: Poisson fault arrivals at `rate_hz` over
  /// [start, horizon), each a window of `duration`, the spec drawn uniformly
  /// from `specs`. Deterministic given the plan's seed. Returns fault ids.
  std::vector<std::uint64_t> random_campaign(util::SimTime start,
                                             util::SimTime horizon,
                                             double rate_hz,
                                             util::SimTime duration,
                                             const std::vector<FaultSpec>& specs);

  /// Marks every not-yet-recovered fault on `target` as recovered now.
  /// Substrate adapters or the harness call this when the component is
  /// observed healthy again (OTA fetch succeeded, gateway back to normal
  /// mode, ECU rebooted, ...). Returns the number of faults marked.
  std::size_t notify_recovered(const std::string& target);

  const std::vector<FaultRecord>& records() const { return records_; }
  /// Faults whose begin event has fired (scheduled-only windows excluded).
  std::size_t injected() const;
  std::size_t recovered() const;
  /// Injected faults never marked recovered — the gate `bench_e15_resilience` exits with.
  std::size_t unrecovered() const { return injected() - recovered(); }

  /// Deterministic export of the fault ledger: same seed + same script =>
  /// byte-identical output (no wall-clock anywhere).
  std::string to_json() const;

  sim::TraceScope& trace() { return trace_; }

 private:
  void apply(const FaultSpec& spec, bool begin);
  void begin_fault(std::uint64_t id);
  void end_fault(std::uint64_t id);

  Scheduler& sched_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::map<std::string, std::unique_ptr<FaultPort>> ports_;
  struct HandlerKey {
    std::string target;
    FaultKind kind;
    bool operator<(const HandlerKey& o) const {
      if (target != o.target) return target < o.target;
      return kind < o.kind;
    }
  };
  std::map<HandlerKey, std::vector<Handler>> handlers_;
  std::vector<FaultRecord> records_;  // id == index + 1
  sim::TraceScope trace_;
  sim::Counter& c_injected_ = trace_.counter("injected");
  sim::Counter& c_cleared_ = trace_.counter("cleared");
  sim::Counter& c_recovered_ = trace_.counter("recovered");
  sim::LatencyHistogram& h_recovery_ms_ =
      trace_.histogram("recovery_ms", 0, 10'000, 64);
  const sim::TraceId k_inject_ = trace_.kind("inject");
  const sim::TraceId k_clear_ = trace_.kind("clear");
  const sim::TraceId k_recovered_ = trace_.kind("recovered");
  const sim::TraceId k_campaign_ = trace_.kind("campaign");
};

}  // namespace aseck::sim
