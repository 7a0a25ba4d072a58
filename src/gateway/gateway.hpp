#pragma once
// Central secure gateway — layer 2 of the paper's 4+1 security assurance
// architecture. Bridges in-vehicle network domains (e.g. powertrain,
// chassis, body, infotainment, telematics), enforcing:
//   * a routing table (which IDs cross which domain boundary),
//   * stateful firewall rules (direction, ID ranges, payload constraints),
//   * per-flow token-bucket rate limiting (DoS mitigation), and
//   * domain quarantine (isolating a compromised IVN, Section 7).
//
// Experiment E6 measures containment and the forwarding-latency overhead.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ivn/can.hpp"
#include "sim/telemetry.hpp"

namespace aseck::gateway {

using ivn::CanBus;
using ivn::CanFrame;
using sim::Scheduler;
using sim::SimTime;

/// Why a frame was not forwarded.
enum class DropReason {
  kNoRoute,
  kFirewallDeny,
  kRateLimited,
  kQuarantined,
  kPayloadRule,
  kLinkDown,      // source or destination domain link is partitioned
  kDegradedShed,  // non-safety-critical route shed in degraded/limp mode
};

/// Graceful-degradation state of a domain (paper §7: a gateway under attack
/// or fault pressure sheds load instead of failing open or failing silent).
enum class GatewayMode { kNormal, kDegraded, kLimpHome };

/// Health-tick policy for automatic mode transitions. Every `window`, each
/// domain's fault count (reported faults + link-down drops + errors on a
/// watched domain bus) is compared against the thresholds; 2 consecutive
/// calm windows step the mode back down one level.
struct DegradedModeConfig {
  SimTime window = SimTime::from_ms(500);
  std::uint32_t degrade_threshold = 20;  // faults/window -> kDegraded
  std::uint32_t limp_threshold = 60;     // faults/window -> kLimpHome
};

/// Firewall rule: matches a frame by source domain, destination domain, and
/// ID range; the first matching rule decides. `max_dlc` optionally bounds
/// the payload size (e.g. diagnostics writes).
struct FirewallRule {
  std::string from_domain = "*";  // "*" = any
  std::string to_domain = "*";    // "*" = any
  std::uint32_t id_min = 0;
  std::uint32_t id_max = 0x1fffffff;
  bool allow = false;
  std::optional<std::size_t> max_dlc;

  bool matches(const std::string& from, const std::string& to,
               const CanFrame& f) const;
};

/// Token bucket for (domain, id) flows.
struct RateLimit {
  double frames_per_sec = 0;  // 0 = unlimited
  double burst = 10;
};

/// Statistics snapshot (registry-backed; see SecurityGateway::stats()).
struct GatewayStats {
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_firewall = 0;
  std::uint64_t dropped_rate = 0;
  std::uint64_t dropped_quarantine = 0;
  std::uint64_t dropped_link_down = 0;
  std::uint64_t dropped_degraded = 0;
  std::uint64_t total_drops() const {
    return dropped_no_route + dropped_firewall + dropped_rate +
           dropped_quarantine + dropped_link_down + dropped_degraded;
  }
};

class SecurityGateway {
 public:
  /// `processing_delay` models firewall/lookup cost per frame.
  static constexpr SimTime kDefaultProcessingDelay = SimTime::from_us(50);
  SecurityGateway(Scheduler& sched, std::string name,
                  SimTime processing_delay = kDefaultProcessingDelay,
                  const sim::Telemetry& telemetry = {});
  ~SecurityGateway();

  SecurityGateway(const SecurityGateway&) = delete;
  SecurityGateway& operator=(const SecurityGateway&) = delete;

  /// Attaches a bus as a named domain.
  void add_domain(const std::string& domain, CanBus* bus);

  /// Adds a route: frames with `id` arriving from `from` are forwarded to
  /// `to` (subject to firewall/rate/quarantine checks). Safety-critical
  /// routes survive degraded/limp-home mode; others are shed.
  void add_route(std::uint32_t id, const std::string& from,
                 const std::string& to, bool safety_critical = false);

  /// Appends a firewall rule (first match wins; default = allow if routed).
  void add_rule(FirewallRule rule);

  /// Sets a rate limit for frames with `id` arriving from `domain`.
  void set_rate_limit(const std::string& domain, std::uint32_t id, RateLimit rl);
  /// Domain-wide rate limit applied to every flow from `domain` without a
  /// per-id limit.
  void set_domain_rate_limit(const std::string& domain, RateLimit rl);

  /// Quarantines / releases a domain.
  void quarantine(const std::string& domain, bool on = true);
  bool quarantined(const std::string& domain) const;

  /// Marks a domain link physically up/down (partition fault). Frames from
  /// or to a down domain are dropped (kLinkDown) and count as domain faults.
  void set_link_up(const std::string& domain, bool up);
  bool link_up(const std::string& domain) const;

  /// Starts the periodic health tick driving per-domain mode transitions.
  void enable_degraded_mode(DegradedModeConfig cfg = {});
  GatewayMode mode(const std::string& domain) const;
  /// Feeds the health counter directly (IDS verdicts, substrate callbacks).
  void report_domain_fault(const std::string& domain, std::uint32_t n = 1);

  /// Counts errors on the buses attached so far as domain faults: each
  /// errored frame weighs 1 and each bus-off 10. The health tick reads the
  /// buses' own counts, so the watch does not depend on tracing. Call after
  /// add_domain(); errors before the call are not counted.
  void enable_bus_fault_watch();

  // --- hot-standby support (gateway::RedundantGateway) -----------------------
  /// Forwarding on (active, default) or off (hot standby). A passive gateway
  /// runs the full admission pipeline in *shadow* — route lookup, quarantine,
  /// link, mode, firewall, and rate-limit token consumption all happen, so
  /// its dynamic state stays warm for an instant failover — but nothing is
  /// emitted on the destination bus and no drop counters/observers fire;
  /// would-have-forwarded frames land in `shadow_forwarded()` instead.
  void set_forwarding(bool on) { forwarding_ = on; }
  bool forwarding() const { return forwarding_; }
  /// Crash simulation: an offline gateway ignores traffic entirely (no
  /// shadow processing), modeling a dead unit rather than a passive one.
  void set_offline(bool off) { offline_ = off; }
  bool offline() const { return offline_; }
  /// Frames the shadow pipeline would have forwarded while passive.
  std::uint64_t shadow_forwarded() const { return c_shadow_forwarded_.value(); }
  /// Frames that reached the admission pipeline (any role, incl. shadow).
  std::uint64_t frames_seen() const { return c_frames_seen_.value(); }

  /// Replicable dynamic state for active -> standby sync. Static config
  /// (routes, rules, limits) is mirrored at setup time by RedundantGateway;
  /// this covers what mutates at runtime.
  struct SyncState {
    struct DomainState {
      bool quarantined = false;
      bool link_up = true;
      GatewayMode mode = GatewayMode::kNormal;
      std::uint32_t fault_count = 0;
      std::uint32_t calm_windows = 0;
    };
    std::map<std::string, DomainState> domains;
  };
  SyncState export_state() const;
  /// Applies a replicated snapshot (mode gauges updated, no trace events —
  /// replication is not a local mode decision).
  void import_state(const SyncState& s);

  /// Snapshot materialized from the metrics registry (compat accessor).
  GatewayStats stats() const;
  sim::TraceScope& trace() { return trace_; }

  /// Observer invoked for each drop (used by the IDS/policy layers).
  using DropObserver =
      std::function<void(const std::string& domain, const CanFrame&, DropReason)>;
  void set_drop_observer(DropObserver obs) { drop_observer_ = std::move(obs); }

  void set_processing_delay(SimTime d) { processing_delay_ = d; }

 private:
  class Port;  // CanNode adapter per domain

  struct Flow {
    RateLimit limit;
    double tokens = 0;
    SimTime last = SimTime::zero();
    bool admit(SimTime now);
  };

  struct Domain;

  void on_domain_frame(const std::string& domain, const CanFrame& frame,
                       SimTime at);
  void drop(const std::string& domain, const CanFrame& frame, DropReason r);
  void health_tick();
  void set_mode(const std::string& name, Domain& d, GatewayMode m);
  /// Faults of `d` in the current window, watched bus errors included.
  static std::uint32_t pending_faults(const Domain& d);
  /// Marks a watched bus's counts as accounted for.
  static void mark_bus(Domain& d);

  Scheduler& sched_;
  std::string name_;
  SimTime processing_delay_;
  bool forwarding_ = true;
  bool offline_ = false;
  struct Domain {
    CanBus* bus = nullptr;
    std::unique_ptr<Port> port;
    bool quarantined = false;
    std::optional<RateLimit> domain_limit;
    bool link_up = true;
    GatewayMode mode = GatewayMode::kNormal;
    std::uint32_t fault_count = 0;   // faults in the current health window
    std::uint32_t calm_windows = 0;  // consecutive windows under threshold
    // Bus-fault watch: the bus's error and bus-off counts at the start of
    // the window.
    bool watched = false;
    std::uint64_t errors_mark = 0;
    std::uint64_t bus_offs_mark = 0;
  };
  std::map<std::string, Domain> domains_;
  struct RouteDest {
    std::string to;
    bool critical = false;
  };
  // id -> (from domain -> list of destination domains)
  std::map<std::uint32_t, std::map<std::string, std::vector<RouteDest>>> routes_;
  std::vector<FirewallRule> rules_;
  std::map<std::string, std::map<std::uint32_t, Flow>> flows_;
  sim::TraceScope trace_;
  sim::Counter& c_forwarded_ = trace_.counter("forwarded");
  sim::Counter& c_dropped_no_route_ = trace_.counter("dropped_no_route");
  sim::Counter& c_dropped_firewall_ = trace_.counter("dropped_firewall");
  sim::Counter& c_dropped_rate_ = trace_.counter("dropped_rate");
  sim::Counter& c_dropped_quarantine_ = trace_.counter("dropped_quarantine");
  sim::Counter& c_dropped_link_down_ = trace_.counter("dropped_link_down");
  sim::Counter& c_dropped_degraded_ = trace_.counter("dropped_degraded");
  sim::Counter& c_frames_seen_ = trace_.counter("frames_seen");
  sim::Counter& c_shadow_forwarded_ = trace_.counter("shadow_forwarded");
  const sim::TraceId k_forward_ = trace_.kind("forward");
  const sim::TraceId k_drop_ = trace_.kind("drop");
  const sim::TraceId k_quarantine_ = trace_.kind("quarantine");
  const sim::TraceId k_release_ = trace_.kind("release");
  const sim::TraceId k_mode_normal_ = trace_.kind("mode_normal");
  const sim::TraceId k_mode_degraded_ = trace_.kind("mode_degraded");
  const sim::TraceId k_mode_limp_ = trace_.kind("mode_limp_home");
  const sim::TraceId k_link_up_ = trace_.kind("link_up");
  const sim::TraceId k_link_down_ = trace_.kind("link_down");
  DropObserver drop_observer_;
  DegradedModeConfig degraded_cfg_;
  std::unique_ptr<sim::PeriodicTask> health_task_;
};

}  // namespace aseck::gateway
