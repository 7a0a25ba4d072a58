#include "gateway/redundant.hpp"

namespace aseck::gateway {

RedundantGateway::RedundantGateway(Scheduler& sched, std::string name,
                                   SimTime processing_delay,
                                   const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      a_(std::make_unique<SecurityGateway>(sched, name_ + ".a",
                                           processing_delay, telemetry)),
      b_(std::make_unique<SecurityGateway>(sched, name_ + ".b",
                                           processing_delay, telemetry)),
      active_(a_.get()),
      standby_(b_.get()),
      trace_("rgw." + name_, "rgw." + name_ + ".", telemetry) {
  standby_->set_forwarding(false);
}

void RedundantGateway::add_domain(const std::string& domain, ivn::CanBus* bus) {
  a_->add_domain(domain, bus);
  b_->add_domain(domain, bus);
}

void RedundantGateway::add_route(std::uint32_t id, const std::string& from,
                                 const std::string& to, bool safety_critical) {
  a_->add_route(id, from, to, safety_critical);
  b_->add_route(id, from, to, safety_critical);
}

void RedundantGateway::enable_degraded_mode(DegradedModeConfig cfg) {
  a_->enable_degraded_mode(cfg);
  b_->enable_degraded_mode(cfg);
}

void RedundantGateway::start_sync(SimTime period) {
  sync_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, period,
      [this] {
        // A dead active is no state source; replication resumes when it is
        // repaired or after the standby is promoted.
        if (active_->offline()) return;
        standby_->import_state(active_->export_state());
        c_syncs_.inc();
        ASECK_TRACE(trace_, sched_.now(), k_sync_,
                    active_->forwarding() ? "a->b" : "b->a");
      },
      period);
}

void RedundantGateway::stop_sync() { sync_task_.reset(); }

void RedundantGateway::set_active_down(bool down) {
  if (down == active_down_) return;
  if (down) {
    active_down_ = true;
    down_at_ = sched_.now();
    down_shadow_mark_ = standby_->shadow_forwarded();
    active_->set_offline(true);
    ASECK_TRACE(trace_, sched_.now(), k_active_down_, active_->trace().component());
    return;
  }
  active_down_ = false;
  // If a failover promoted the standby meanwhile, the repaired unit is now
  // pointed to by standby_: it rejoins in shadow mode, primed with the
  // current active's replicated state. Otherwise the blip was shorter than
  // detection and the active simply resumes.
  if (!standby_->forwarding() && standby_->offline()) {
    standby_->set_offline(false);
    standby_->import_state(active_->export_state());
    ASECK_TRACE(trace_, sched_.now(), k_rejoin_, standby_->trace().component());
  } else {
    active_->set_offline(false);
    ASECK_TRACE(trace_, sched_.now(), k_active_up_, active_->trace().component());
  }
}

bool RedundantGateway::failover() {
  if (!standby_ || standby_->offline()) return false;
  // Downtime in frames: what the standby's shadow pipeline admitted (and
  // would have forwarded) since the active went down. When failover is
  // invoked without a recorded down mark (manual switchover), downtime is 0.
  if (active_down_) {
    last_frames_lost_ = standby_->shadow_forwarded() - down_shadow_mark_;
    last_detect_latency_ = sched_.now() - down_at_;
  } else {
    last_frames_lost_ = 0;
    last_detect_latency_ = SimTime::zero();
  }
  h_detect_ms_.record(last_detect_latency_.ms());
  active_->set_forwarding(false);
  standby_->set_forwarding(true);
  std::swap(active_, standby_);
  c_failovers_.inc();
  ASECK_TRACE(trace_, sched_.now(), k_failover_,
              "to=" + active_->trace().component() +
                  " frames_lost=" + std::to_string(last_frames_lost_) +
                  " detect_ns=" + std::to_string(last_detect_latency_.ns));
  return true;
}

}  // namespace aseck::gateway
