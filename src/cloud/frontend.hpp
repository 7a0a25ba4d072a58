#pragma once
// Storm-facing session layer in front of the OTA backend: terminates the
// vehicle <-> cloud secure channel (cloud::ChannelServer, real ECDSA/ECDH
// crypto) and amortizes it with an LRU session-ticket cache. A campaign wave
// of N vehicles costs N full handshakes exactly once; every re-poll, retry,
// and server-directed re-admission within the ticket lifetime resumes the
// session for a fraction of the latency — which is what keeps the connection
// layer out of the way when admission control is deliberately bouncing a
// herd of clients (E21).
//
// Deliberately knows nothing about Uptane or the serving front: benches and
// examples compose SessionFrontend + ota::RepositoryServer at the call site,
// so the cloud module's dependency surface stays crypto-only.

#include <cstdint>
#include <string>

#include "cloud/secure_channel.hpp"
#include "sim/telemetry.hpp"
#include "util/lru.hpp"

namespace aseck::cloud {

struct FrontendConfig {
  util::SimTime ticket_lifetime = util::SimTime::from_s(3600);
};

struct ConnectResult {
  bool ok = false;
  bool resumed = false;
  util::SimTime latency = util::SimTime::zero();
  std::uint64_t ticket_id = 0;
};

class SessionFrontend {
 public:
  SessionFrontend(ServerCredential cred, crypto::EcdsaPrivateKey identity,
                  crypto::EcdsaPublicKey authority, crypto::Drbg& rng,
                  FrontendConfig cfg = {},
                  const sim::Telemetry& telemetry = {});

  /// Generates a server identity, has `authority` certify it, and pins the
  /// matching authority key client-side — the one-call setup used by tests
  /// and benches.
  static SessionFrontend create(const std::string& name,
                                const crypto::EcdsaPrivateKey& authority,
                                crypto::Drbg& rng, FrontendConfig cfg = {});

  /// Establishes (or resumes) a session for `vehicle_id`. A cache hit with
  /// an unexpired ticket resumes cheaply; otherwise the real one-round-trip
  /// handshake runs and a fresh ticket is cached.
  ConnectResult connect(const std::string& vehicle_id, util::SimTime now);

  std::uint64_t handshakes() const { return c_handshakes_.value(); }
  std::uint64_t resumptions() const { return c_resumed_.value(); }
  double resumption_rate() const {
    const std::uint64_t h = handshakes(), r = resumptions();
    return h + r == 0 ? 0.0
                      : static_cast<double>(r) / static_cast<double>(h + r);
  }

 private:
  struct Ticket {
    std::uint64_t id = 0;
    util::SimTime expires = util::SimTime::zero();
  };

  FrontendConfig cfg_;
  ChannelServer server_;
  crypto::EcdsaPublicKey authority_;
  crypto::Drbg& rng_;
  util::LruCache<std::string, Ticket> tickets_;
  std::uint64_t next_ticket_ = 1;

  sim::TraceScope trace_;
  sim::Counter& c_handshakes_ = trace_.counter("handshakes");
  sim::Counter& c_resumed_ = trace_.counter("resumed");
  sim::Counter& c_failures_ = trace_.counter("failures");
  const sim::TraceId k_handshake_ = trace_.kind("handshake");
  const sim::TraceId k_resume_ = trace_.kind("resume");
  const sim::TraceId k_fail_ = trace_.kind("handshake_fail");
};

}  // namespace aseck::cloud
