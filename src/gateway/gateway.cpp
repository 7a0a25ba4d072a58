#include "gateway/gateway.hpp"

#include <algorithm>
#include <stdexcept>

namespace aseck::gateway {

namespace {
/// Consecutive calm health windows that step a domain's mode down one level.
constexpr std::uint32_t kHealthyWindows = 2;
}  // namespace

bool FirewallRule::matches(const std::string& from, const std::string& to,
                           const CanFrame& f) const {
  if (from_domain != "*" && from_domain != from) return false;
  if (to_domain != "*" && to_domain != to) return false;
  return f.id >= id_min && f.id <= id_max;
}

bool SecurityGateway::Flow::admit(SimTime now) {
  if (limit.frames_per_sec <= 0) return true;
  tokens = std::min(limit.burst,
                    tokens + (now - last).seconds() * limit.frames_per_sec);
  last = now;
  if (tokens >= 1.0) {
    tokens -= 1.0;
    return true;
  }
  return false;
}

/// Per-domain CAN attachment: relays received frames into the gateway core.
class SecurityGateway::Port : public ivn::CanNode {
 public:
  Port(SecurityGateway* gw, std::string domain)
      : ivn::CanNode("gw:" + domain), gw_(gw), domain_(std::move(domain)) {}

  void on_frame(const CanFrame& frame, SimTime at) override {
    gw_->on_domain_frame(domain_, frame, at);
  }

 private:
  SecurityGateway* gw_;
  std::string domain_;
};

SecurityGateway::SecurityGateway(Scheduler& sched, std::string name,
                                 SimTime processing_delay,
                                 const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      processing_delay_(processing_delay),
      trace_(name_, "gateway." + name_ + ".", telemetry) {}

GatewayStats SecurityGateway::stats() const {
  GatewayStats s;
  s.forwarded = c_forwarded_.value();
  s.dropped_no_route = c_dropped_no_route_.value();
  s.dropped_firewall = c_dropped_firewall_.value();
  s.dropped_rate = c_dropped_rate_.value();
  s.dropped_quarantine = c_dropped_quarantine_.value();
  s.dropped_link_down = c_dropped_link_down_.value();
  s.dropped_degraded = c_dropped_degraded_.value();
  return s;
}

SecurityGateway::~SecurityGateway() {
  for (auto& [dom, d] : domains_) {
    if (d.bus && d.port) d.bus->detach(d.port.get());
  }
}

void SecurityGateway::add_domain(const std::string& domain, CanBus* bus) {
  if (domains_.count(domain)) {
    throw std::invalid_argument("SecurityGateway: duplicate domain " + domain);
  }
  Domain d;
  d.bus = bus;
  d.port = std::make_unique<Port>(this, domain);
  bus->attach(d.port.get());
  domains_[domain] = std::move(d);
}

void SecurityGateway::add_route(std::uint32_t id, const std::string& from,
                                const std::string& to, bool safety_critical) {
  if (!domains_.count(from) || !domains_.count(to)) {
    throw std::invalid_argument("SecurityGateway: route references unknown domain");
  }
  routes_[id][from].push_back(RouteDest{to, safety_critical});
}

void SecurityGateway::add_rule(FirewallRule rule) {
  rules_.push_back(std::move(rule));
}

void SecurityGateway::set_rate_limit(const std::string& domain, std::uint32_t id,
                                     RateLimit rl) {
  Flow f;
  f.limit = rl;
  f.tokens = rl.burst;
  f.last = sched_.now();
  flows_[domain][id] = f;
}

void SecurityGateway::set_domain_rate_limit(const std::string& domain,
                                            RateLimit rl) {
  domains_.at(domain).domain_limit = rl;
}

void SecurityGateway::quarantine(const std::string& domain, bool on) {
  domains_.at(domain).quarantined = on;
  ASECK_TRACE(trace_, sched_.now(), on ? k_quarantine_ : k_release_, domain);
}

bool SecurityGateway::quarantined(const std::string& domain) const {
  return domains_.at(domain).quarantined;
}

void SecurityGateway::set_link_up(const std::string& domain, bool up) {
  Domain& d = domains_.at(domain);
  if (d.link_up == up) return;
  d.link_up = up;
  if (!up) ++d.fault_count;  // a partition is itself a fault signal
  ASECK_TRACE(trace_, sched_.now(), up ? k_link_up_ : k_link_down_, domain);
}

bool SecurityGateway::link_up(const std::string& domain) const {
  return domains_.at(domain).link_up;
}

GatewayMode SecurityGateway::mode(const std::string& domain) const {
  return domains_.at(domain).mode;
}

void SecurityGateway::report_domain_fault(const std::string& domain,
                                          std::uint32_t n) {
  domains_.at(domain).fault_count += n;
}

void SecurityGateway::enable_degraded_mode(DegradedModeConfig cfg) {
  if (cfg.window.ns == 0) {
    throw std::invalid_argument("SecurityGateway: zero health window");
  }
  degraded_cfg_ = cfg;
  health_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg.window, [this] { health_tick(); }, cfg.window);
}

void SecurityGateway::set_mode(const std::string& name, Domain& d,
                               GatewayMode m) {
  if (d.mode == m) return;
  d.mode = m;
  const sim::TraceId k = m == GatewayMode::kNormal     ? k_mode_normal_
                         : m == GatewayMode::kDegraded ? k_mode_degraded_
                                                       : k_mode_limp_;
  ASECK_TRACE(trace_, sched_.now(), k, name);
  trace_.metrics().gauge("gateway." + name_ + ".mode." + name)
      .set(static_cast<double>(m));
}

std::uint32_t SecurityGateway::pending_faults(const Domain& d) {
  if (!d.watched) return d.fault_count;
  // Bus-off is a much stronger degradation signal than one errored frame.
  const std::uint64_t bus_faults =
      (d.bus->stats().frames_error - d.errors_mark) +
      10 * (d.bus->bus_offs() - d.bus_offs_mark);
  return d.fault_count + static_cast<std::uint32_t>(bus_faults);
}

void SecurityGateway::mark_bus(Domain& d) {
  if (!d.watched) return;
  d.errors_mark = d.bus->stats().frames_error;
  d.bus_offs_mark = d.bus->bus_offs();
}

void SecurityGateway::health_tick() {
  for (auto& [dom, d] : domains_) {
    const std::uint32_t n = pending_faults(d);
    d.fault_count = 0;
    mark_bus(d);
    if (n >= degraded_cfg_.limp_threshold) {
      d.calm_windows = 0;
      set_mode(dom, d, GatewayMode::kLimpHome);
    } else if (n >= degraded_cfg_.degrade_threshold) {
      d.calm_windows = 0;
      // Escalate to degraded; an already-limp domain stays limp until calm.
      if (d.mode == GatewayMode::kNormal) set_mode(dom, d, GatewayMode::kDegraded);
    } else if (d.mode != GatewayMode::kNormal) {
      if (++d.calm_windows >= kHealthyWindows) {
        d.calm_windows = 0;
        set_mode(dom, d,
                 d.mode == GatewayMode::kLimpHome ? GatewayMode::kDegraded
                                                  : GatewayMode::kNormal);
      }
    }
  }
}

void SecurityGateway::enable_bus_fault_watch() {
  for (auto& [dom, d] : domains_) {
    d.watched = true;
    mark_bus(d);
  }
}

SecurityGateway::SyncState SecurityGateway::export_state() const {
  SyncState s;
  for (const auto& [dom, d] : domains_) {
    SyncState::DomainState ds;
    ds.quarantined = d.quarantined;
    ds.link_up = d.link_up;
    ds.mode = d.mode;
    ds.fault_count = pending_faults(d);
    ds.calm_windows = d.calm_windows;
    s.domains[dom] = ds;
  }
  return s;
}

void SecurityGateway::import_state(const SyncState& s) {
  for (const auto& [dom, ds] : s.domains) {
    const auto it = domains_.find(dom);
    if (it == domains_.end()) continue;  // config drift: unknown domain
    Domain& d = it->second;
    d.quarantined = ds.quarantined;
    d.link_up = ds.link_up;
    d.fault_count = ds.fault_count;
    mark_bus(d);
    d.calm_windows = ds.calm_windows;
    if (d.mode != ds.mode) {
      d.mode = ds.mode;
      trace_.metrics().gauge("gateway." + name_ + ".mode." + dom)
          .set(static_cast<double>(ds.mode));
    }
  }
}

void SecurityGateway::drop(const std::string& domain, const CanFrame& frame,
                           DropReason r) {
  if (!forwarding_) return;  // shadow pipeline: no drop accounting/observers
  switch (r) {
    case DropReason::kNoRoute: c_dropped_no_route_.inc(); break;
    case DropReason::kFirewallDeny:
    case DropReason::kPayloadRule: c_dropped_firewall_.inc(); break;
    case DropReason::kRateLimited: c_dropped_rate_.inc(); break;
    case DropReason::kQuarantined: c_dropped_quarantine_.inc(); break;
    case DropReason::kLinkDown: c_dropped_link_down_.inc(); break;
    case DropReason::kDegradedShed: c_dropped_degraded_.inc(); break;
  }
  ASECK_TRACE(trace_, sched_.now(), k_drop_,
              domain + " id=" + std::to_string(frame.id));
  if (drop_observer_) drop_observer_(domain, frame, r);
}

void SecurityGateway::on_domain_frame(const std::string& domain,
                                      const CanFrame& frame, SimTime at) {
  (void)at;
  if (offline_) return;  // crashed unit: no processing at all
  c_frames_seen_.inc();
  Domain& src = domains_.at(domain);
  if (src.quarantined) {
    drop(domain, frame, DropReason::kQuarantined);
    return;
  }
  if (!src.link_up) {
    ++src.fault_count;
    drop(domain, frame, DropReason::kLinkDown);
    return;
  }

  const auto rit = routes_.find(frame.id);
  if (rit == routes_.end()) {
    drop(domain, frame, DropReason::kNoRoute);
    return;
  }
  const auto dit = rit->second.find(domain);
  if (dit == rit->second.end()) {
    drop(domain, frame, DropReason::kNoRoute);
    return;
  }

  // Rate limiting: per-id flow if configured, else domain-wide flow.
  auto& domain_flows = flows_[domain];
  auto fit = domain_flows.find(frame.id);
  if (fit == domain_flows.end() && src.domain_limit) {
    Flow f;
    f.limit = *src.domain_limit;
    f.tokens = src.domain_limit->burst;
    f.last = sched_.now();
    fit = domain_flows.emplace(frame.id, f).first;
  }
  if (fit != domain_flows.end() && !fit->second.admit(sched_.now())) {
    drop(domain, frame, DropReason::kRateLimited);
    return;
  }

  for (const RouteDest& rd : dit->second) {
    const std::string& to = rd.to;
    Domain& dst = domains_.at(to);
    if (dst.quarantined) {
      drop(domain, frame, DropReason::kQuarantined);
      continue;
    }
    if (!dst.link_up) {
      ++dst.fault_count;
      drop(domain, frame, DropReason::kLinkDown);
      continue;
    }
    // Graceful degradation: a degraded source domain sheds its non-critical
    // outbound routes; a limp-home domain sheds non-critical routes in both
    // directions. Safety-critical routes always survive.
    if (!rd.critical && (src.mode != GatewayMode::kNormal ||
                         dst.mode == GatewayMode::kLimpHome)) {
      drop(domain, frame, DropReason::kDegradedShed);
      continue;
    }
    // Firewall: first matching rule wins; routed traffic defaults to allow.
    bool allow = true;
    for (const FirewallRule& rule : rules_) {
      if (rule.matches(domain, to, frame)) {
        allow = rule.allow &&
                (!rule.max_dlc || frame.data.size() <= *rule.max_dlc);
        break;
      }
    }
    if (!allow) {
      drop(domain, frame, DropReason::kFirewallDeny);
      continue;
    }
    if (!forwarding_) {
      // Hot standby: the frame passed the whole pipeline (state is warm),
      // but only the active unit may emit on the destination bus.
      c_shadow_forwarded_.inc();
      continue;
    }
    c_forwarded_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_forward_,
                domain + "->" + to + " id=" + std::to_string(frame.id));
    CanFrame copy = frame;
    CanBus* bus = dst.bus;
    ivn::CanNode* port = dst.port.get();
    sched_.schedule_in(processing_delay_, [bus, port, copy = std::move(copy)] {
      bus->send(port, copy);
    });
  }
}

}  // namespace aseck::gateway
