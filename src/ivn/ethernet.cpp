#include "ivn/ethernet.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace aseck::ivn {

namespace {
std::uint64_t mac_key(const MacAddress& m) {
  std::uint64_t v = 0;
  for (auto b : m) v = (v << 8) | b;
  return v;
}
}  // namespace

MacAddress mac_from_u64(std::uint64_t v) {
  MacAddress m;
  for (int i = 5; i >= 0; --i) {
    m[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
  return m;
}

std::string mac_to_string(const MacAddress& m) {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1],
                m[2], m[3], m[4], m[5]);
  return buf;
}

bool PortPolicer::admit(std::size_t bytes, SimTime now) {
  if (rate_bps <= 0) return true;
  const double elapsed = (now - last).seconds();
  last = now;
  tokens = std::min(burst_bytes, tokens + elapsed * rate_bps);
  if (tokens >= static_cast<double>(bytes)) {
    tokens -= static_cast<double>(bytes);
    return true;
  }
  return false;
}

EthernetSwitch::EthernetSwitch(Scheduler& sched, std::string name,
                               std::uint64_t link_bps, SimTime processing_delay,
                               const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      link_bps_(link_bps),
      processing_delay_(processing_delay),
      trace_(name_, "ethernet." + name_ + ".", telemetry) {
  if (link_bps_ == 0) throw std::invalid_argument("EthernetSwitch: zero rate");
}

std::size_t EthernetSwitch::connect(EthernetEndpoint* ep) {
  ports_.push_back(Port{ep, {}, {}, true});
  return ports_.size() - 1;
}

void EthernetSwitch::set_port_vlans(std::size_t port,
                                    std::vector<std::uint16_t> vlans) {
  ports_.at(port).vlans = std::move(vlans);
}

void EthernetSwitch::set_policer(std::size_t port, double rate_bytes_per_sec,
                                 double burst_bytes) {
  auto& p = ports_.at(port).policer;
  p.rate_bps = rate_bytes_per_sec;
  p.burst_bytes = burst_bytes;
  p.tokens = burst_bytes;
  p.last = sched_.now();
}

void EthernetSwitch::set_port_enabled(std::size_t port, bool enabled) {
  ports_.at(port).enabled = enabled;
  ASECK_TRACE(trace_, sched_.now(), enabled ? k_port_up_ : k_port_down_,
              "port=" + std::to_string(port));
}

bool EthernetSwitch::port_enabled(std::size_t port) const {
  return ports_.at(port).enabled;
}

bool EthernetSwitch::vlan_allowed(const Port& p, std::uint16_t vlan) const {
  if (p.vlans.empty()) return true;
  return std::find(p.vlans.begin(), p.vlans.end(), vlan) != p.vlans.end();
}

bool EthernetSwitch::send(std::size_t port, EthernetFrame frame) {
  Port& in = ports_.at(port);
  if (!in.enabled) {
    c_dropped_port_down_.inc();
    return false;
  }
  if (!vlan_allowed(in, frame.vlan)) {
    c_dropped_vlan_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_drop_vlan_,
                "port=" + std::to_string(port));
    return false;
  }
  if (!in.policer.admit(frame.wire_bytes(), sched_.now())) {
    c_dropped_policer_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_drop_policed_,
                "port=" + std::to_string(port));
    return false;
  }
  if (fault_port_ && (fault_port_->down() || fault_port_->roll_drop())) {
    c_dropped_fault_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_fault_drop_,
                "port=" + std::to_string(port));
    return false;
  }
  if (fault_port_ && fault_port_->roll_corrupt() && !frame.payload.empty()) {
    frame.payload[0] = static_cast<std::uint8_t>(frame.payload[0] ^ 0xff);
    c_corrupted_fault_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_fault_corrupt_,
                "port=" + std::to_string(port));
  }
  // Learn source MAC.
  fdb_[mac_key(frame.src)] = port;

  // Store-and-forward latency: ingress serialization + processing (+ any
  // injected queueing delay).
  SimTime latency =
      SimTime::from_seconds_f(static_cast<double>(frame.wire_bytes() * 8) /
                              static_cast<double>(link_bps_)) +
      processing_delay_;
  if (fault_port_) latency += fault_port_->roll_delay();
  const bool duplicate = fault_port_ && fault_port_->roll_duplicate();
  auto forward = [this, port, frame = std::move(frame)] {
    const auto it = fdb_.find(mac_key(frame.dst));
    if (frame.dst != kBroadcastMac && it != fdb_.end() && it->second != port) {
      deliver(it->second, frame);
    } else if (frame.dst == kBroadcastMac || it == fdb_.end()) {
      c_flooded_.inc();
      for (std::size_t p = 0; p < ports_.size(); ++p) {
        if (p != port) deliver(p, frame);
      }
    }
  };
  if (duplicate) {
    c_duplicated_fault_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_fault_dup_,
                "port=" + std::to_string(port));
    sched_.schedule_in(latency, forward);
  }
  sched_.schedule_in(latency, std::move(forward));
  return true;
}

void EthernetSwitch::deliver(std::size_t port, const EthernetFrame& frame) {
  Port& out = ports_.at(port);
  if (!out.enabled || !vlan_allowed(out, frame.vlan)) {
    if (!out.enabled) {
      c_dropped_port_down_.inc();
    } else {
      c_dropped_vlan_.inc();
    }
    return;
  }
  c_forwarded_.inc();
  // Egress serialization.
  const SimTime tx = SimTime::from_seconds_f(
      static_cast<double>(frame.wire_bytes() * 8) / static_cast<double>(link_bps_));
  sched_.schedule_in(tx, [this, port, frame] {
    ports_.at(port).ep->on_frame(frame, sched_.now());
  });
}

std::optional<std::size_t> EthernetSwitch::learned_port(const MacAddress& mac) const {
  const auto it = fdb_.find(mac_key(mac));
  if (it == fdb_.end()) return std::nullopt;
  return it->second;
}

}  // namespace aseck::ivn
