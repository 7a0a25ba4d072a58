#include "ivn/someip.hpp"

#include "util/coverage.hpp"

namespace aseck::ivn {

namespace {
constexpr std::uint16_t kSomeIpEthertype = 0x88B5;  // local experimental
constexpr std::size_t kMacTrailerBytes = 8;

EthernetFrame make_frame(const MacAddress& src, const MacAddress& dst,
                         util::Bytes payload) {
  EthernetFrame f;
  f.src = src;
  f.dst = dst;
  f.ethertype = kSomeIpEthertype;
  f.payload = std::move(payload);
  return f;
}
}  // namespace

util::Bytes SomeIpMessage::serialize() const {
  util::Bytes out;
  util::append_be(out, service, 2);
  util::append_be(out, method, 2);
  util::append_be(out, client, 2);
  util::append_be(out, session, 2);
  out.push_back(static_cast<std::uint8_t>(type));
  util::append_be(out, payload.size(), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<SomeIpMessage> SomeIpMessage::parse(util::BytesView b) {
  if (b.size() < 13) {
    ASECK_COV("someip.parse.too_short");
    return std::nullopt;
  }
  SomeIpMessage m;
  m.service = static_cast<ServiceId>(util::load_be32(b.data()) >> 16);
  m.method = static_cast<MethodId>(util::load_be32(b.data()) & 0xffff);
  m.client = static_cast<ClientId>(util::load_be32(b.data() + 4) >> 16);
  m.session = static_cast<std::uint16_t>(util::load_be32(b.data() + 4) & 0xffff);
  m.type = static_cast<Type>(b[8]);
  switch (m.type) {
    case Type::kRequest:
    case Type::kResponse:
    case Type::kError:
    case Type::kNotification:
      break;
    default:
      ASECK_COV("someip.parse.bad_type");
      return std::nullopt;
  }
  const std::uint32_t len = util::load_be32(b.data() + 9);
  // Bounds-check the declared length against the remaining bytes in 64-bit
  // arithmetic: the former `b.size() < 13 + len` compared against a uint32
  // sum, so a length near 2^32 wrapped to a small value and the assign below
  // read far out of bounds (the V11-class integer overflow).
  if (len > b.size() - 13) {
    ASECK_COV("someip.parse.len_overrun");
    return std::nullopt;
  }
  ASECK_COV("someip.parse.ok");
  m.payload.assign(b.begin() + 13, b.begin() + 13 + len);
  return m;
}

util::Bytes someip_mac_trailer(const crypto::Cmac& cmac, const SomeIpMessage& m) {
  return cmac.tag_truncated(m.serialize(), kMacTrailerBytes);
}

SomeIpServer::SomeIpServer(EthernetSwitch& sw, std::string name, MacAddress mac,
                           const ServiceAcl* acl,
                           const sim::Telemetry& telemetry)
    : EthernetEndpoint(std::move(name), mac),
      switch_(sw),
      acl_(acl),
      trace_(this->name(), "someip." + this->name() + ".", telemetry) {
  port_ = sw.connect(this);
}

void SomeIpServer::offer(ServiceId service, MethodId method, Handler handler,
                         std::optional<util::Bytes> key) {
  Endpoint ep;
  ep.handler = std::move(handler);
  if (key) ep.cmac.emplace(*key);
  methods_[{service, method}] = std::move(ep);
}

void SomeIpServer::on_frame(const EthernetFrame& frame, sim::SimTime at) {
  if (frame.ethertype != kSomeIpEthertype) return;
  // Split message || optional trailer.
  auto m = SomeIpMessage::parse(frame.payload);
  util::BytesView trailer;
  if (!m) return;
  const std::size_t msg_len = 13 + m->payload.size();
  if (frame.payload.size() > msg_len) {
    trailer = util::BytesView(frame.payload).subspan(msg_len);
  }
  if (m->type != SomeIpMessage::Type::kRequest) return;

  SomeIpMessage reply = *m;
  reply.type = SomeIpMessage::Type::kResponse;
  SomeIpError err = SomeIpError::kOk;

  const auto it = methods_.find({m->service, m->method});
  if (it == methods_.end()) {
    const bool service_known =
        std::any_of(methods_.begin(), methods_.end(), [&](const auto& kv) {
          return kv.first.first == m->service;
        });
    err = service_known ? SomeIpError::kUnknownMethod
                        : SomeIpError::kUnknownService;
  } else if (acl_ && !acl_->permitted(m->service, m->client)) {
    err = SomeIpError::kAccessDenied;
    c_denied_acl_.inc();
    ASECK_TRACE(trace_, at, k_deny_acl_,
                "service=" + std::to_string(m->service) +
                    " client=" + std::to_string(m->client));
  } else if (it->second.cmac) {
    if (trailer.size() != kMacTrailerBytes ||
        !util::ct_equal(trailer, someip_mac_trailer(*it->second.cmac, *m))) {
      err = SomeIpError::kBadMac;
      c_denied_mac_.inc();
      ASECK_TRACE(trace_, at, k_deny_mac_,
                  "service=" + std::to_string(m->service) +
                      " client=" + std::to_string(m->client));
    }
  }

  if (err == SomeIpError::kOk) {
    reply.payload = it->second.handler(m->payload);
    c_served_.inc();
    ASECK_TRACE(trace_, at, k_serve_,
                "service=" + std::to_string(m->service) +
                    " method=" + std::to_string(m->method));
  } else {
    reply.type = SomeIpMessage::Type::kError;
    reply.payload = {static_cast<std::uint8_t>(err)};
  }

  util::Bytes wire = reply.serialize();
  if (err == SomeIpError::kOk && it->second.cmac) {
    const util::Bytes mac = someip_mac_trailer(*it->second.cmac, reply);
    wire.insert(wire.end(), mac.begin(), mac.end());
  }
  switch_.send(port_, make_frame(mac(), frame.src, std::move(wire)));
}

SomeIpClient::SomeIpClient(EthernetSwitch& sw, std::string name, MacAddress mac,
                           ClientId id)
    : EthernetEndpoint(std::move(name), mac), switch_(sw), id_(id) {
  port_ = sw.connect(this);
}

void SomeIpClient::call(const MacAddress& server_mac, ServiceId service,
                        MethodId method, util::Bytes payload,
                        ResponseFn on_response,
                        std::optional<util::Bytes> key) {
  SomeIpMessage m;
  m.service = service;
  m.method = method;
  m.client = id_;
  m.session = next_session_++;
  m.type = SomeIpMessage::Type::kRequest;
  m.payload = std::move(payload);
  util::Bytes wire = m.serialize();
  if (key) {
    const crypto::Cmac cmac(*key);
    const util::Bytes mac_t = someip_mac_trailer(cmac, m);
    wire.insert(wire.end(), mac_t.begin(), mac_t.end());
  }
  pending_[m.session] = {std::move(on_response), std::move(key)};
  switch_.send(port_, make_frame(mac(), server_mac, std::move(wire)));
}

void SomeIpClient::on_frame(const EthernetFrame& frame, sim::SimTime) {
  if (frame.ethertype != kSomeIpEthertype) return;
  const auto m = SomeIpMessage::parse(frame.payload);
  if (!m) return;
  if (m->type != SomeIpMessage::Type::kResponse &&
      m->type != SomeIpMessage::Type::kError) {
    return;
  }
  const auto it = pending_.find(m->session);
  if (it == pending_.end()) return;
  auto [fn, key] = std::move(it->second);
  pending_.erase(it);
  if (m->type == SomeIpMessage::Type::kError) {
    const SomeIpError err = m->payload.empty()
                                ? SomeIpError::kNotReachable
                                : static_cast<SomeIpError>(m->payload[0]);
    fn(err, {});
    return;
  }
  if (key) {
    // Verify the response trailer.
    const std::size_t msg_len = 13 + m->payload.size();
    const crypto::Cmac cmac(*key);
    if (frame.payload.size() != msg_len + 8 ||
        !util::ct_equal(util::BytesView(frame.payload).subspan(msg_len),
                        someip_mac_trailer(cmac, *m))) {
      fn(SomeIpError::kBadMac, {});
      return;
    }
  }
  fn(SomeIpError::kOk, m->payload);
}

}  // namespace aseck::ivn
