#include "safety/supervisor.hpp"

#include <algorithm>
#include <stdexcept>

namespace aseck::safety {

namespace {
constexpr double kBackoffMultiplier = 2.0;  // per failed reset attempt
}  // namespace

const char* escalation_level_name(EscalationLevel l) {
  switch (l) {
    case EscalationLevel::kNone: return "none";
    case EscalationLevel::kLocalReset: return "local_reset";
    case EscalationLevel::kDomainDegrade: return "domain_degrade";
    case EscalationLevel::kLimpHome: return "limp_home";
  }
  return "?";
}

HealthSupervisor::HealthSupervisor(Scheduler& sched, std::string name,
                                   const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      trace_("supervisor." + name_, "supervisor." + name_ + ".", telemetry) {}

HealthSupervisor::~HealthSupervisor() { stop(); }

void HealthSupervisor::supervise_alive(const std::string& entity,
                                       AliveSupervision cfg,
                                       EscalationPolicy esc) {
  if (cfg.period.ns == 0) {
    throw std::invalid_argument("HealthSupervisor: zero alive period");
  }
  if (entities_.count(entity)) {
    throw std::invalid_argument("HealthSupervisor: duplicate entity " + entity);
  }
  Entity e;
  e.alive_cfg = cfg;
  e.esc = std::move(esc);
  entities_[entity] = std::move(e);
  trace_.metrics().gauge("supervisor." + name_ + ".status." + entity)
      .set(static_cast<double>(EntityStatus::kOk));
}

HealthSupervisor::Entity& HealthSupervisor::entity(const std::string& name) {
  const auto it = entities_.find(name);
  if (it == entities_.end()) {
    throw std::invalid_argument("HealthSupervisor: unknown entity " + name);
  }
  return it->second;
}

const HealthSupervisor::Entity& HealthSupervisor::entity(
    const std::string& name) const {
  const auto it = entities_.find(name);
  if (it == entities_.end()) {
    throw std::invalid_argument("HealthSupervisor: unknown entity " + name);
  }
  return it->second;
}

void HealthSupervisor::set_deadline(const std::string& name,
                                    DeadlineSupervision cfg) {
  entity(name).deadline_cfg = cfg;
}

void HealthSupervisor::add_logical_transition(const std::string& name,
                                              std::uint32_t from,
                                              std::uint32_t to) {
  entity(name).transitions.emplace_back(from, to);
}

void HealthSupervisor::set_reset_handler(const std::string& name,
                                         ResetHandler h) {
  entity(name).reset = std::move(h);
}

void HealthSupervisor::set_degrade_handler(DegradeHandler h) {
  degrade_ = std::move(h);
}

void HealthSupervisor::set_status_handler(StatusHandler h) {
  status_handler_ = std::move(h);
}

void HealthSupervisor::alive(const std::string& name) {
  Entity& e = entity(name);
  ++e.alive_count;
  e.last_alive_at = sched_.now();
  c_heartbeats_.inc();
}

void HealthSupervisor::deadline_start(const std::string& name) {
  entity(name).deadline_started = sched_.now();
}

void HealthSupervisor::deadline_end(const std::string& name) {
  Entity& e = entity(name);
  if (!e.deadline_cfg) return;
  if (!e.deadline_started) {
    ++e.violations;  // end without start is itself a violation
    ASECK_TRACE(trace_, sched_.now(), k_deadline_violation_, name + " no_start");
    return;
  }
  const SimTime elapsed = sched_.now() - *e.deadline_started;
  e.deadline_started.reset();
  if (elapsed < e.deadline_cfg->min || elapsed > e.deadline_cfg->max) {
    ++e.violations;
    ASECK_TRACE(trace_, sched_.now(), k_deadline_violation_,
                name + " ns=" + std::to_string(elapsed.ns));
  }
}

void HealthSupervisor::checkpoint(const std::string& name, std::uint32_t cp) {
  Entity& e = entity(name);
  if (e.transitions.empty()) return;
  if (e.last_checkpoint) {
    const auto ok = std::any_of(
        e.transitions.begin(), e.transitions.end(),
        [&](const auto& t) { return t.first == *e.last_checkpoint && t.second == cp; });
    if (!ok) {
      ++e.violations;
      ASECK_TRACE(trace_, sched_.now(), k_logical_violation_,
                  name + " " + std::to_string(*e.last_checkpoint) + "->" +
                      std::to_string(cp));
    }
  }
  e.last_checkpoint = cp;
}

void HealthSupervisor::start() {
  if (running_) return;
  running_ = true;
  for (auto& [name, e] : entities_) {
    Entity* ent = &e;  // map nodes are stable
    e.cycle_task = std::make_unique<sim::PeriodicTask>(
        sched_, e.alive_cfg.period,
        [this, nm = name, ent] { evaluate_cycle(nm, *ent); },
        e.alive_cfg.period);
  }
}

void HealthSupervisor::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& [name, e] : entities_) {
    e.cycle_task.reset();
    if (e.reset_timer.valid()) {
      sched_.cancel(e.reset_timer);
      e.reset_timer = {};
    }
  }
}

void HealthSupervisor::set_status(const std::string& name, Entity& e,
                                  EntityStatus s) {
  if (e.status == s) return;
  e.status = s;
  trace_.metrics().gauge("supervisor." + name_ + ".status." + name)
      .set(static_cast<double>(s));
  const sim::TraceId k = s == EntityStatus::kOk       ? k_ok_
                         : s == EntityStatus::kFailed ? k_failed_
                                                      : k_expired_;
  ASECK_TRACE(trace_, sched_.now(), k, name);
  if (status_handler_) status_handler_(name, s);
}

void HealthSupervisor::evaluate_cycle(const std::string& name, Entity& e) {
  c_cycles_.inc();
  // An expired entity is owned by the escalation machinery; its cycle keeps
  // ticking but contributes nothing until a reset re-arms it.
  if (e.status == EntityStatus::kExpired) {
    e.alive_count = 0;
    e.violations = 0;
    return;
  }
  if (e.skip_cycle) {
    e.skip_cycle = false;
    e.alive_count = 0;
    e.violations = 0;
    return;
  }
  const std::uint32_t lo =
      e.alive_cfg.expected > e.alive_cfg.min_margin
          ? e.alive_cfg.expected - e.alive_cfg.min_margin
          : 0;
  const std::uint32_t hi = e.alive_cfg.expected + e.alive_cfg.max_margin;
  const bool alive_ok = e.alive_count >= lo && e.alive_count <= hi;
  const bool ok = alive_ok && e.violations == 0;
  e.alive_count = 0;
  e.violations = 0;
  if (ok) {
    e.failed_streak = 0;
    set_status(name, e, EntityStatus::kOk);
    return;
  }
  c_failed_.inc();
  ++e.failed_streak;
  if (e.failed_streak > e.esc.failed_tolerance) {
    expire(name, e);
  } else {
    set_status(name, e, EntityStatus::kFailed);
  }
}

void HealthSupervisor::expire(const std::string& name, Entity& e) {
  c_expired_.inc();
  e.expired_at = sched_.now();
  // Detection latency: from the last good alive indication (or from start
  // if none ever arrived) to the supervision decision.
  e.detection_latency = sched_.now() - e.last_alive_at;
  h_detect_ms_.record(e.detection_latency.ms());
  set_status(name, e, EntityStatus::kExpired);
  e.level = EscalationLevel::kLocalReset;
  e.reset_attempts = 0;
  ASECK_TRACE(trace_, sched_.now(), k_escalate_, name + " local_reset");
  c_escalations_.inc();
  attempt_reset(name);
}

void HealthSupervisor::attempt_reset(const std::string& name) {
  Entity& e = entity(name);
  e.reset_timer = {};
  if (e.status != EntityStatus::kExpired) return;  // incident already over
  ++e.reset_attempts;
  c_reset_attempts_.inc();
  ASECK_TRACE(trace_, sched_.now(), k_reset_attempt_,
              name + " n=" + std::to_string(e.reset_attempts));
  const bool up = e.reset && e.reset(name);
  if (up) {
    c_reset_ok_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_reset_ok_, name);
    recover(name, e);
    return;
  }
  // Bounded restart-storm backoff; each exhausted round of max_resets
  // attempts climbs one escalation rung.
  if (e.reset_attempts % std::max(1u, e.esc.max_resets) == 0) {
    escalate(name, e);
  }
  const std::uint32_t exp = e.reset_attempts > 0 ? e.reset_attempts - 1 : 0;
  double backoff_s = e.esc.reset_backoff.seconds();
  for (std::uint32_t i = 0; i < exp && backoff_s < e.esc.max_backoff.seconds();
       ++i) {
    backoff_s *= kBackoffMultiplier;
  }
  backoff_s = std::min(backoff_s, e.esc.max_backoff.seconds());
  const SimTime backoff = SimTime::from_seconds_f(backoff_s);
  ASECK_TRACE(trace_, sched_.now(), k_reset_backoff_,
              name + " ns=" + std::to_string(backoff.ns));
  e.reset_timer =
      sched_.schedule_after(backoff, [this, name] { attempt_reset(name); });
}

void HealthSupervisor::escalate(const std::string& name, Entity& e) {
  if (e.esc.domain.empty() || e.level == EscalationLevel::kLimpHome) return;
  e.level = e.level == EscalationLevel::kLocalReset
                ? EscalationLevel::kDomainDegrade
                : EscalationLevel::kLimpHome;
  c_escalations_.inc();
  ASECK_TRACE(trace_, sched_.now(), k_escalate_,
              name + " " + escalation_level_name(e.level));
  if (degrade_) degrade_(e.esc.domain, e.level);
}

void HealthSupervisor::recover(const std::string& name, Entity& e) {
  const EscalationLevel prev = e.level;
  e.level = EscalationLevel::kNone;
  e.failed_streak = 0;
  // The partial supervision window the reset landed in is not evaluated:
  // the fresh component cannot have beaten earlier in it.
  e.skip_cycle = true;
  e.alive_count = 0;
  e.violations = 0;
  e.reset_attempts = 0;
  e.last_alive_at = sched_.now();  // grace: the fresh component gets a full cycle
  e.last_checkpoint.reset();
  e.deadline_started.reset();
  set_status(name, e, EntityStatus::kOk);
  ASECK_TRACE(trace_, sched_.now(), k_recovered_, name);
  if (prev >= EscalationLevel::kDomainDegrade && degrade_ &&
      !e.esc.domain.empty()) {
    degrade_(e.esc.domain, EscalationLevel::kNone);
  }
}

EntityStatus HealthSupervisor::status(const std::string& name) const {
  return entity(name).status;
}

EscalationLevel HealthSupervisor::escalation(const std::string& name) const {
  return entity(name).level;
}

bool HealthSupervisor::limp_home() const {
  for (const auto& [n, e] : entities_) {
    if (e.level == EscalationLevel::kLimpHome) return true;
  }
  return false;
}

std::size_t HealthSupervisor::expired_count() const {
  std::size_t n = 0;
  for (const auto& [name, e] : entities_) {
    if (e.status == EntityStatus::kExpired) ++n;
  }
  return n;
}

SimTime HealthSupervisor::expired_at(const std::string& name) const {
  return entity(name).expired_at;
}

SimTime HealthSupervisor::detection_latency(const std::string& name) const {
  return entity(name).detection_latency;
}

// --- HeartbeatEmitter --------------------------------------------------------

HeartbeatEmitter::HeartbeatEmitter(Scheduler& sched,
                                   HealthSupervisor& supervisor,
                                   std::string entity, SimTime period,
                                   HealthProbe probe)
    : sched_(sched),
      supervisor_(supervisor),
      entity_(std::move(entity)),
      period_(period),
      probe_(std::move(probe)) {}

HeartbeatEmitter::~HeartbeatEmitter() { stop(); }

void HeartbeatEmitter::start() {
  if (task_) return;
  task_ = std::make_unique<sim::PeriodicTask>(
      sched_, period_,
      [this] {
        if (probe_ && !probe_()) {
          ++suppressed_;
          return;
        }
        supervisor_.alive(entity_);
      },
      period_);
}

void HeartbeatEmitter::stop() { task_.reset(); }

// --- Watchdog ----------------------------------------------------------------

Watchdog::Watchdog(Scheduler& sched, HealthSupervisor& supervisor,
                   std::string entity, SimTime check_period,
                   HeartbeatEmitter::HealthProbe healthy,
                   HealthSupervisor::ResetHandler reset)
    : supervisor_(supervisor),
      entity_(std::move(entity)),
      heartbeat_(
          sched, supervisor, entity_,
          SimTime::from_ns(std::max<std::uint64_t>(1, check_period.ns / 2)),
          std::move(healthy)) {
  AliveSupervision alive;
  alive.period = check_period;
  alive.expected = 1;
  alive.min_margin = 0;
  alive.max_margin = 3;  // heartbeat runs at 2x the cycle; allow phase drift
  EscalationPolicy esc;
  esc.failed_tolerance = 0;  // first silent cycle expires the entity
  esc.max_resets = 3;
  supervisor_.supervise_alive(entity_, alive, esc);
  supervisor_.set_reset_handler(entity_, std::move(reset));
}

void Watchdog::start() {
  heartbeat_.start();
  if (!supervisor_.running()) supervisor_.start();
}

}  // namespace aseck::safety
