#pragma once
// AUTOSAR-WdgM-style health supervision (paper §3: ISO 26262 safety
// mechanisms must coexist with security; §7: the assurance architecture
// needs faults *detected and isolated*, not just survived).
//
// One `HealthSupervisor` owns a set of supervised entities, each with its
// own reference cycle scheduled on `sim::Scheduler`. Three supervision
// functions, mirroring WdgM:
//
//   * alive supervision     — counted alive indications (`alive()`) per
//                             reference cycle must land in
//                             [expected - min_margin, expected + max_margin];
//   * deadline supervision  — `deadline_start()`/`deadline_end()` pairs must
//                             complete within [min, max];
//   * logical supervision   — `checkpoint(id)` sequences must follow the
//                             registered transition graph.
//
// Per-entity state machine: kOk -> kFailed (violating cycles within the
// tolerance) -> kExpired (tolerance exhausted). Expiry starts the escalation
// ladder: local watchdog reset attempts with bounded exponential backoff
// (restart-storm protection) -> domain degradation (wired to the gateway's
// degraded-mode policy or a RedundantGateway failover) -> limp-home. A
// successful reset ends the incident and steps everything back to kOk.
//
// Every transition, reset attempt, and escalation is emitted on the shared
// TraceBus, so `fault inject -> missed heartbeat -> expired -> failover ->
// reset_ok` reads as one causal chain next to the chaos plane's own events,
// and detection latency (last good alive indication -> expiry) lands in a
// registry histogram. `HeartbeatEmitter` is the producer-side helper: a
// periodic scheduler task that emits alive indications while its health
// probe holds, which is how a `sim::FaultPlan` ECU-crash window turns into
// missed heartbeats without the supervisor knowing about fault ports.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"

namespace aseck::safety {

using sim::Scheduler;
using sim::SimTime;

/// WdgM local supervision status of one entity.
enum class EntityStatus { kOk, kFailed, kExpired };

/// Escalation ladder rung currently applied for an entity (kNone = healthy).
enum class EscalationLevel { kNone, kLocalReset, kDomainDegrade, kLimpHome };
const char* escalation_level_name(EscalationLevel l);

/// Alive-supervision parameters for one entity.
struct AliveSupervision {
  /// Reference cycle: the window over which indications are counted.
  SimTime period = SimTime::from_ms(100);
  std::uint32_t expected = 1;    // indications per cycle
  std::uint32_t min_margin = 0;  // tolerate expected - min_margin
  std::uint32_t max_margin = 0;  // tolerate expected + max_margin
};

/// Deadline-supervision parameters (checkpoint start -> end).
struct DeadlineSupervision {
  SimTime min = SimTime::zero();
  SimTime max = SimTime::from_ms(10);
};

/// Escalation policy for one entity.
struct EscalationPolicy {
  /// Consecutive FAILED cycles tolerated before the entity expires.
  std::uint32_t failed_tolerance = 1;
  /// Reset attempts before escalating one ladder rung (restart-storm bound).
  std::uint32_t max_resets = 3;
  SimTime reset_backoff = SimTime::from_ms(10);  // first retry; doubles after
  SimTime max_backoff = SimTime::from_s(1);
  /// Domain handed to the degrade handler at kDomainDegrade/kLimpHome
  /// (empty = skip those rungs; the ladder stays at kLocalReset).
  std::string domain;
};

class HealthSupervisor {
 public:
  HealthSupervisor(Scheduler& sched, std::string name,
                   const sim::Telemetry& telemetry = {});
  ~HealthSupervisor();
  HealthSupervisor(const HealthSupervisor&) = delete;
  HealthSupervisor& operator=(const HealthSupervisor&) = delete;

  // --- registration (before start()) ----------------------------------------
  void supervise_alive(const std::string& entity, AliveSupervision cfg,
                       EscalationPolicy esc = {});
  /// Adds deadline supervision to an already-registered entity.
  void set_deadline(const std::string& entity, DeadlineSupervision cfg);
  /// Adds an allowed logical transition `from -> to` to a registered entity.
  /// The first checkpoint of a cycle is unconstrained.
  void add_logical_transition(const std::string& entity, std::uint32_t from,
                              std::uint32_t to);

  // --- runtime indications ---------------------------------------------------
  void alive(const std::string& entity);
  void deadline_start(const std::string& entity);
  void deadline_end(const std::string& entity);
  void checkpoint(const std::string& entity, std::uint32_t cp);

  // --- escalation wiring -----------------------------------------------------
  /// Attempts to reset/restart the entity; returns true when the component
  /// is back up (the supervisor then re-arms it as kOk). Returning false
  /// schedules another attempt after the (growing, bounded) backoff.
  using ResetHandler = std::function<bool(const std::string& entity)>;
  void set_reset_handler(const std::string& entity, ResetHandler h);
  /// Invoked when an entity's ladder reaches kDomainDegrade or kLimpHome,
  /// and again with kNone when the incident ends (recovery).
  using DegradeHandler =
      std::function<void(const std::string& domain, EscalationLevel level)>;
  void set_degrade_handler(DegradeHandler h);
  /// Invoked on every entity status transition.
  using StatusHandler =
      std::function<void(const std::string& entity, EntityStatus status)>;
  void set_status_handler(StatusHandler h);

  /// Arms one periodic supervision task per registered entity.
  void start();
  void stop();
  bool running() const { return running_; }

  // --- observation -----------------------------------------------------------
  EntityStatus status(const std::string& entity) const;
  EscalationLevel escalation(const std::string& entity) const;
  /// Any entity currently escalated to limp-home.
  bool limp_home() const;
  std::size_t expired_count() const;
  /// Time the entity last expired (zero if never).
  SimTime expired_at(const std::string& entity) const;
  /// Last measured detection latency (last good alive indication -> expiry;
  /// zero if the entity never expired).
  SimTime detection_latency(const std::string& entity) const;

  /// Supervision cycles evaluated (the CPU-overhead proxy for E16).
  std::uint64_t cycles() const { return c_cycles_.value(); }
  /// Alive indications received.
  std::uint64_t heartbeats() const { return c_heartbeats_.value(); }
  std::uint64_t resets_attempted() const { return c_reset_attempts_.value(); }
  std::uint64_t resets_succeeded() const { return c_reset_ok_.value(); }
  std::uint64_t expirations() const { return c_expired_.value(); }

 private:
  struct Entity {
    AliveSupervision alive_cfg;
    EscalationPolicy esc;
    std::optional<DeadlineSupervision> deadline_cfg;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> transitions;
    ResetHandler reset;

    EntityStatus status = EntityStatus::kOk;
    EscalationLevel level = EscalationLevel::kNone;
    std::uint32_t alive_count = 0;    // indications in the current cycle
    std::uint32_t failed_streak = 0;  // consecutive violating cycles
    std::uint32_t violations = 0;     // deadline/logical hits this cycle
    SimTime last_alive_at = SimTime::zero();
    std::optional<SimTime> deadline_started;
    std::optional<std::uint32_t> last_checkpoint;
    SimTime expired_at = SimTime::zero();
    SimTime detection_latency = SimTime::zero();
    std::uint32_t reset_attempts = 0;  // within the current incident
    bool skip_cycle = false;  // don't evaluate the partial post-reset window
    std::unique_ptr<sim::PeriodicTask> cycle_task;
    sim::EventId reset_timer;
  };

  Entity& entity(const std::string& name);
  const Entity& entity(const std::string& name) const;
  void evaluate_cycle(const std::string& name, Entity& e);
  void set_status(const std::string& name, Entity& e, EntityStatus s);
  void expire(const std::string& name, Entity& e);
  void attempt_reset(const std::string& name);
  void escalate(const std::string& name, Entity& e);
  void recover(const std::string& name, Entity& e);

  Scheduler& sched_;
  std::string name_;
  bool running_ = false;
  std::map<std::string, Entity> entities_;
  DegradeHandler degrade_;
  StatusHandler status_handler_;
  sim::TraceScope trace_;
  sim::Counter& c_cycles_ = trace_.counter("cycles");
  sim::Counter& c_heartbeats_ = trace_.counter("heartbeats");
  sim::Counter& c_failed_ = trace_.counter("failed_cycles");
  sim::Counter& c_expired_ = trace_.counter("expirations");
  sim::Counter& c_reset_attempts_ = trace_.counter("reset_attempts");
  sim::Counter& c_reset_ok_ = trace_.counter("resets_ok");
  sim::Counter& c_escalations_ = trace_.counter("escalations");
  sim::LatencyHistogram& h_detect_ms_ =
      trace_.histogram("detect_ms", 0.0, 1000.0, 50);
  const sim::TraceId k_ok_ = trace_.kind("entity_ok");
  const sim::TraceId k_failed_ = trace_.kind("entity_failed");
  const sim::TraceId k_expired_ = trace_.kind("entity_expired");
  const sim::TraceId k_reset_attempt_ = trace_.kind("reset_attempt");
  const sim::TraceId k_reset_ok_ = trace_.kind("reset_ok");
  const sim::TraceId k_reset_backoff_ = trace_.kind("reset_backoff");
  const sim::TraceId k_escalate_ = trace_.kind("escalate");
  const sim::TraceId k_recovered_ = trace_.kind("entity_recovered");
  const sim::TraceId k_deadline_violation_ = trace_.kind("deadline_violation");
  const sim::TraceId k_logical_violation_ = trace_.kind("logical_violation");
};

/// Producer-side heartbeat source: a periodic scheduler task that emits an
/// alive indication while the health probe holds. Wire the probe to a fault
/// port (`[&] { return !plan.port("ecu.x").down(); }`) and a `FaultPlan`
/// crash window becomes missed heartbeats with zero supervisor coupling.
class HeartbeatEmitter {
 public:
  using HealthProbe = std::function<bool()>;
  HeartbeatEmitter(Scheduler& sched, HealthSupervisor& supervisor,
                   std::string entity, SimTime period, HealthProbe probe = {});
  ~HeartbeatEmitter();
  HeartbeatEmitter(const HeartbeatEmitter&) = delete;
  HeartbeatEmitter& operator=(const HeartbeatEmitter&) = delete;

  void start();
  void stop();
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  Scheduler& sched_;
  HealthSupervisor& supervisor_;
  std::string entity_;
  SimTime period_;
  HealthProbe probe_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::uint64_t suppressed_ = 0;
};

/// Supervised-reset wiring: registers `entity` for alive supervision at
/// `check_period` with a HeartbeatEmitter beating at twice that rate while
/// `healthy` holds. The first silent cycle expires the entity, and the
/// escalation ladder (up to 3 resets) calls `reset`, which returns whether
/// the entity came back up. BootGuard and ota::ConfirmWatchdog are this
/// wiring plus their own probe and reset action.
class Watchdog {
 public:
  /// Registers `entity` on `supervisor` (call before supervisor.start()).
  Watchdog(Scheduler& sched, HealthSupervisor& supervisor, std::string entity,
           SimTime check_period, HeartbeatEmitter::HealthProbe healthy,
           HealthSupervisor::ResetHandler reset);

  /// Starts the heartbeat (and the supervisor, if not yet running).
  void start();

 private:
  HealthSupervisor& supervisor_;
  std::string entity_;
  HeartbeatEmitter heartbeat_;
};

}  // namespace aseck::safety
