#pragma once
// SOME/IP-style service layer over Automotive Ethernet (paper §7: Automotive
// Ethernet as the next-generation IVN with "stricter separation"). Models:
//   * service offering / discovery (SD) with subscribe handshake,
//   * an access-control matrix (which client ECU may use which service —
//     the service-level firewall complementing VLAN isolation), and
//   * optional authenticated sessions: a CMAC over each payload under a
//     service-specific key, so a compromised node on the same VLAN still
//     cannot invoke protected methods.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "crypto/cmac.hpp"
#include "ivn/ethernet.hpp"

namespace aseck::ivn {

using ServiceId = std::uint16_t;
using MethodId = std::uint16_t;
using ClientId = std::uint16_t;

/// SOME/IP header fields we model (subset).
struct SomeIpMessage {
  ServiceId service = 0;
  MethodId method = 0;
  ClientId client = 0;
  std::uint16_t session = 0;
  enum class Type : std::uint8_t {
    kRequest = 0x00,
    kResponse = 0x80,
    kError = 0x81,
    kNotification = 0x02,
  } type = Type::kRequest;
  util::Bytes payload;

  util::Bytes serialize() const;
  static std::optional<SomeIpMessage> parse(util::BytesView b);
};

/// Return codes (subset).
enum class SomeIpError : std::uint8_t {
  kOk = 0x00,
  kUnknownService = 0x02,
  kUnknownMethod = 0x03,
  kNotReachable = 0x05,
  kAccessDenied = 0x0C,   // vendor range: authorization failure
  kBadMac = 0x0D,
};

/// Access-control matrix: (service, client) -> allowed.
class ServiceAcl {
 public:
  void allow(ServiceId service, ClientId client) {
    allowed_.insert({service, client});
  }
  bool permitted(ServiceId service, ClientId client) const {
    return allowed_.count({service, client}) > 0;
  }

 private:
  std::set<std::pair<ServiceId, ClientId>> allowed_;
};

/// A service host: registers method handlers; optionally requires MAC'd
/// requests. Runs point-to-point over the Ethernet switch.
class SomeIpServer : public EthernetEndpoint {
 public:
  SomeIpServer(EthernetSwitch& sw, std::string name, MacAddress mac,
               const ServiceAcl* acl, const sim::Telemetry& telemetry = {});

  using Handler = std::function<util::Bytes(util::BytesView payload)>;
  /// Offers a method. If `key` is provided, requests must carry a valid
  /// 8-byte CMAC trailer and responses are MAC'd too.
  void offer(ServiceId service, MethodId method, Handler handler,
             std::optional<util::Bytes> key = std::nullopt);

  void on_frame(const EthernetFrame& frame, sim::SimTime at) override;

  std::uint64_t served() const { return c_served_.value(); }
  std::uint64_t denied_acl() const { return c_denied_acl_.value(); }
  std::uint64_t denied_mac() const { return c_denied_mac_.value(); }
  std::size_t port() const { return port_; }

 private:
  struct Endpoint {
    Handler handler;
    std::optional<crypto::Cmac> cmac;
  };

  EthernetSwitch& switch_;
  const ServiceAcl* acl_;
  std::size_t port_;
  std::map<std::pair<ServiceId, MethodId>, Endpoint> methods_;
  sim::TraceScope trace_;
  sim::Counter& c_served_ = trace_.counter("served");
  sim::Counter& c_denied_acl_ = trace_.counter("denied_acl");
  sim::Counter& c_denied_mac_ = trace_.counter("denied_mac");
  const sim::TraceId k_serve_ = trace_.kind("serve");
  const sim::TraceId k_deny_acl_ = trace_.kind("deny_acl");
  const sim::TraceId k_deny_mac_ = trace_.kind("deny_mac");
};

/// A service consumer.
class SomeIpClient : public EthernetEndpoint {
 public:
  SomeIpClient(EthernetSwitch& sw, std::string name, MacAddress mac,
               ClientId id);

  /// Issues a request to the server at `server_mac`. The response arrives
  /// via the callback (or an error message).
  using ResponseFn = std::function<void(SomeIpError, util::BytesView payload)>;
  void call(const MacAddress& server_mac, ServiceId service, MethodId method,
            util::Bytes payload, ResponseFn on_response,
            std::optional<util::Bytes> key = std::nullopt);

  void on_frame(const EthernetFrame& frame, sim::SimTime at) override;

  std::size_t port() const { return port_; }

 private:
  EthernetSwitch& switch_;
  ClientId id_;
  std::size_t port_;
  std::uint16_t next_session_ = 1;
  std::map<std::uint16_t, std::pair<ResponseFn, std::optional<util::Bytes>>>
      pending_;
};

/// Appends/verifies the 8-byte CMAC trailer over the serialized header+payload.
util::Bytes someip_mac_trailer(const crypto::Cmac& cmac, const SomeIpMessage& m);

}  // namespace aseck::ivn
