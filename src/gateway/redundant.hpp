#pragma once
// Hot-standby redundant gateway pair — removes the single point of failure
// the paper's 4+1 architecture (§7) places at the Secure Gateway. Two
// `SecurityGateway` units attach to the same domain buses: the active unit
// forwards, the standby runs the identical admission pipeline in shadow
// (see SecurityGateway::set_forwarding), so rate-limit tokens, health
// windows, and modes stay warm. A periodic sync task additionally
// replicates the active's dynamic state (quarantine flags, link state,
// degradation modes, health counters) onto the standby, covering state the
// shadow pipeline cannot observe on its own (operator quarantines, direct
// fault reports).
//
// Failover is *policy-free* here: detection belongs to the
// safety::HealthSupervisor (missed gateway heartbeats expire the entity and
// the escalation handler calls `failover()`), and crash injection belongs
// to the sim::FaultPlan (`plan.on("gw.active", kCrash, ...)` calls
// `set_active_down`). The pair itself only measures: switchover downtime is
// reported in frames lost — frames the standby's shadow pipeline would have
// forwarded between the active going down and promotion — plus the
// detection latency, which is exactly the paper's §6 optimization (tight
// heartbeat periods) vs. extensibility (supervision overhead) trade-off
// quantified in bench_e16_supervision.

#include <cstdint>
#include <memory>
#include <string>

#include "gateway/gateway.hpp"

namespace aseck::gateway {

class RedundantGateway {
 public:
  /// Builds the pair `<name>.a` (initially active) and `<name>.b` (standby).
  RedundantGateway(Scheduler& sched, std::string name,
                   SimTime processing_delay =
                       SecurityGateway::kDefaultProcessingDelay,
                   const sim::Telemetry& telemetry = {});

  RedundantGateway(const RedundantGateway&) = delete;
  RedundantGateway& operator=(const RedundantGateway&) = delete;

  SecurityGateway& active() { return *active_; }
  SecurityGateway& standby() { return *standby_; }

  // --- mirrored configuration (applied to both units) ------------------------
  void add_domain(const std::string& domain, ivn::CanBus* bus);
  void add_route(std::uint32_t id, const std::string& from,
                 const std::string& to, bool safety_critical = false);
  void enable_degraded_mode(DegradedModeConfig cfg = {});

  /// Starts periodic active -> standby state replication.
  void start_sync(SimTime period);
  void stop_sync();
  std::uint64_t syncs() const { return c_syncs_.value(); }

  // --- fault + supervision wiring --------------------------------------------
  /// Marks the active unit crashed (down=true) or repaired (down=false);
  /// typically driven by a FaultPlan kCrash handler. A repaired unit that
  /// was failed-over rejoins as the new standby in shadow mode, primed with
  /// the current active's state.
  void set_active_down(bool down);

  /// Promotes the standby (supervisor escalation handler). Records frames
  /// lost and detection latency for the incident. Returns false if a
  /// failover is already in effect with the old active still down-and-unswapped
  /// state (i.e. nothing to promote).
  bool failover();

  // --- measurements -----------------------------------------------------------
  std::uint64_t failovers() const { return c_failovers_.value(); }
  /// Shadow-would-have-forwarded frames between active-down and promotion of
  /// the most recent failover (the switchover downtime, in frames).
  std::uint64_t last_failover_frames_lost() const { return last_frames_lost_; }
  /// Active-down -> failover() of the most recent incident.
  SimTime last_detection_latency() const { return last_detect_latency_; }

 private:
  Scheduler& sched_;
  std::string name_;
  std::unique_ptr<SecurityGateway> a_;
  std::unique_ptr<SecurityGateway> b_;
  SecurityGateway* active_ = nullptr;
  SecurityGateway* standby_ = nullptr;
  bool active_down_ = false;
  SimTime down_at_ = SimTime::zero();
  std::uint64_t down_shadow_mark_ = 0;  // standby shadow counter at down
  std::uint64_t last_frames_lost_ = 0;
  SimTime last_detect_latency_ = SimTime::zero();
  std::unique_ptr<sim::PeriodicTask> sync_task_;
  sim::TraceScope trace_;
  sim::Counter& c_syncs_ = trace_.counter("state_syncs");
  sim::Counter& c_failovers_ = trace_.counter("failovers");
  sim::LatencyHistogram& h_detect_ms_ =
      trace_.histogram("detect_ms", 0.0, 1000.0, 50);
  const sim::TraceId k_sync_ = trace_.kind("state_sync");
  const sim::TraceId k_failover_ = trace_.kind("failover");
  const sim::TraceId k_active_down_ = trace_.kind("active_down");
  const sim::TraceId k_active_up_ = trace_.kind("active_up");
  const sim::TraceId k_rejoin_ = trace_.kind("standby_rejoin");
};

}  // namespace aseck::gateway
