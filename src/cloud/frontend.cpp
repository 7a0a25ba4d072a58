#include "cloud/frontend.hpp"

namespace aseck::cloud {

namespace {
constexpr std::size_t kTicketCacheEntries = 1024;
/// Modeled wall time of a full handshake vs a ticket resumption (the
/// asymmetric crypto actually runs either way the full path is taken; the
/// latency constants are what the sim schedules against).
constexpr util::SimTime kFullHandshakeLatency = util::SimTime::from_ms(12);
constexpr util::SimTime kResumeLatency = util::SimTime::from_ms(1);
}  // namespace

SessionFrontend::SessionFrontend(ServerCredential cred,
                                 crypto::EcdsaPrivateKey identity,
                                 crypto::EcdsaPublicKey authority,
                                 crypto::Drbg& rng, FrontendConfig cfg,
                                 const sim::Telemetry& telemetry)
    : cfg_(cfg),
      server_(std::move(cred), std::move(identity), rng),
      authority_(std::move(authority)),
      rng_(rng),
      tickets_(kTicketCacheEntries),
      trace_("cloud.front", "cloud.front.", telemetry) {}

SessionFrontend SessionFrontend::create(const std::string& name,
                                        const crypto::EcdsaPrivateKey& authority,
                                        crypto::Drbg& rng, FrontendConfig cfg) {
  crypto::EcdsaPrivateKey identity = crypto::EcdsaPrivateKey::generate(rng);
  ServerCredential cred =
      ServerCredential::issue(name, identity.public_key(), authority);
  return SessionFrontend(std::move(cred), std::move(identity),
                         authority.public_key(), rng, cfg);
}

ConnectResult SessionFrontend::connect(const std::string& vehicle_id,
                                       util::SimTime now) {
  ConnectResult r;
  if (Ticket* t = tickets_.find(vehicle_id); t && now < t->expires) {
    r.ok = true;
    r.resumed = true;
    r.latency = kResumeLatency;
    r.ticket_id = t->id;
    ASECK_TRACE(trace_, now, k_resume_, vehicle_id);
    c_resumed_.inc();
    return r;
  }
  // No (valid) ticket: run the real one-round-trip handshake. The client
  // side pins the authority key exactly as a vehicle would.
  ChannelClient client(authority_, rng_);
  const ClientHello ch = client.hello();
  const ServerHello sh = server_.respond(ch);
  if (client.finish(sh) != ChannelClient::Result::kOk) {
    c_failures_.inc();
    ASECK_TRACE(trace_, now, k_fail_, vehicle_id);
    return r;  // !ok
  }
  Ticket t;
  t.id = next_ticket_++;
  t.expires = now + cfg_.ticket_lifetime;
  r.ok = true;
  r.latency = kFullHandshakeLatency;
  r.ticket_id = t.id;
  tickets_.put(vehicle_id, t);
  c_handshakes_.inc();
  ASECK_TRACE(trace_, now, k_handshake_,
              vehicle_id + " ticket=" + std::to_string(t.id));
  return r;
}

}  // namespace aseck::cloud
