#pragma once
// Automotive Ethernet (100BASE-T1-class) switched network model: MAC
// learning, VLAN isolation, per-port ingress policing, and store-and-forward
// latency. The paper (Section 7, "Secure Networks") points to Automotive
// Ethernet as the next-generation IVN with stricter separation — the VLAN +
// policing features here are what the E7/E6 experiments exercise.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

namespace aseck::ivn {

using sim::Scheduler;
using sim::SimTime;

using MacAddress = std::array<std::uint8_t, 6>;

MacAddress mac_from_u64(std::uint64_t v);
std::string mac_to_string(const MacAddress& m);
inline constexpr MacAddress kBroadcastMac{0xff, 0xff, 0xff, 0xff, 0xff, 0xff};

struct EthernetFrame {
  MacAddress dst{};
  MacAddress src{};
  std::uint16_t vlan = 0;       // 0 = untagged
  std::uint16_t ethertype = 0x0800;
  util::Bytes payload;

  std::size_t wire_bytes() const {
    // preamble+SFD(8) + header(14) + VLAN tag(4 if tagged) + payload
    // (min 46) + FCS(4) + IFG(12).
    const std::size_t body = payload.size() < 46 ? 46 : payload.size();
    return 8 + 14 + (vlan ? 4 : 0) + body + 4 + 12;
  }
};

class EthernetEndpoint {
 public:
  explicit EthernetEndpoint(std::string name, MacAddress mac)
      : name_(std::move(name)), mac_(mac) {}
  virtual ~EthernetEndpoint() = default;

  const std::string& name() const { return name_; }
  const MacAddress& mac() const { return mac_; }

  virtual void on_frame(const EthernetFrame& frame, SimTime at) = 0;

 private:
  std::string name_;
  MacAddress mac_;
};

/// Token-bucket ingress policer (rate in bytes/sec, burst in bytes).
struct PortPolicer {
  double rate_bps = 0;   // 0 = unlimited
  double burst_bytes = 0;
  double tokens = 0;
  SimTime last = SimTime::zero();

  bool admit(std::size_t bytes, SimTime now);
};

/// Faults (sim::FaultHook): drop faults and link-down windows discard at
/// ingress, corrupt faults flip a payload byte, delay faults stretch
/// store-and-forward latency, duplicate faults forward the frame twice.
class EthernetSwitch : public sim::FaultHook {
 public:
  EthernetSwitch(Scheduler& sched, std::string name,
                 std::uint64_t link_bps = 100'000'000,
                 SimTime processing_delay = SimTime::from_us(5),
                 const sim::Telemetry& telemetry = {});

  /// Connects an endpoint; returns its port number.
  std::size_t connect(EthernetEndpoint* ep);

  /// Restricts a port to a set of VLANs (empty = all allowed).
  void set_port_vlans(std::size_t port, std::vector<std::uint16_t> vlans);
  /// Ingress rate limit for a port.
  void set_policer(std::size_t port, double rate_bytes_per_sec, double burst_bytes);
  /// Administratively disables a port (quarantine).
  void set_port_enabled(std::size_t port, bool enabled);
  bool port_enabled(std::size_t port) const;

  /// Injects a frame from the endpoint on `port`.
  /// Returns false if dropped at ingress (policing/VLAN/port-down).
  bool send(std::size_t port, EthernetFrame frame);

  std::uint64_t forwarded() const { return c_forwarded_.value(); }
  std::uint64_t dropped_policer() const { return c_dropped_policer_.value(); }
  std::uint64_t dropped_vlan() const { return c_dropped_vlan_.value(); }
  std::uint64_t dropped_port_down() const { return c_dropped_port_down_.value(); }
  std::uint64_t flooded() const { return c_flooded_.value(); }
  /// Frames lost / mangled / cloned by injected faults.
  std::uint64_t dropped_fault() const { return c_dropped_fault_.value(); }
  std::uint64_t corrupted_fault() const { return c_corrupted_fault_.value(); }
  std::uint64_t duplicated_fault() const { return c_duplicated_fault_.value(); }

  /// Port an endpoint MAC was learned on, if any.
  std::optional<std::size_t> learned_port(const MacAddress& mac) const;

 private:
  struct Port {
    EthernetEndpoint* ep = nullptr;
    std::vector<std::uint16_t> vlans;  // empty = all
    PortPolicer policer;
    bool enabled = true;
  };

  bool vlan_allowed(const Port& p, std::uint16_t vlan) const;
  void deliver(std::size_t port, const EthernetFrame& frame);

  Scheduler& sched_;
  std::string name_;
  std::uint64_t link_bps_;
  SimTime processing_delay_;
  std::vector<Port> ports_;
  std::map<std::uint64_t, std::size_t> fdb_;  // mac (as u64) -> port
  sim::TraceScope trace_;
  sim::Counter& c_forwarded_ = trace_.counter("forwarded");
  sim::Counter& c_dropped_policer_ = trace_.counter("dropped_policer");
  sim::Counter& c_dropped_vlan_ = trace_.counter("dropped_vlan");
  sim::Counter& c_dropped_port_down_ = trace_.counter("dropped_port_down");
  sim::Counter& c_flooded_ = trace_.counter("flooded");
  sim::Counter& c_dropped_fault_ = trace_.counter("dropped_fault");
  sim::Counter& c_corrupted_fault_ = trace_.counter("corrupted_fault");
  sim::Counter& c_duplicated_fault_ = trace_.counter("duplicated_fault");
  const sim::TraceId k_port_up_ = trace_.kind("port_up");
  const sim::TraceId k_port_down_ = trace_.kind("port_down");
  const sim::TraceId k_drop_vlan_ = trace_.kind("drop_vlan");
  const sim::TraceId k_drop_policed_ = trace_.kind("drop_policed");
  const sim::TraceId k_fault_drop_ = trace_.kind("fault_drop");
  const sim::TraceId k_fault_corrupt_ = trace_.kind("fault_corrupt");
  const sim::TraceId k_fault_dup_ = trace_.kind("fault_dup");
};

}  // namespace aseck::ivn
