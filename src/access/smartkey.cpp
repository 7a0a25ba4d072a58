#include "access/smartkey.hpp"

namespace aseck::access {

util::Bytes AccessToken::tbs() const {
  util::Bytes out;
  out.insert(out.end(), device_id.begin(), device_id.end());
  out.push_back(0);
  const util::Bytes kb = device_key.to_bytes();
  out.insert(out.end(), kb.begin(), kb.end());
  for (Capability c : capabilities) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  util::append_be(out, expires.ns, 8);
  return out;
}

KeyServer::KeyServer(crypto::Drbg& rng)
    : key_(crypto::EcdsaPrivateKey::generate(rng)) {}

AccessToken KeyServer::issue(const std::string& device_id,
                             const crypto::EcdsaPublicKey& device_key,
                             std::set<Capability> caps, SimTime expires) {
  AccessToken t;
  t.device_id = device_id;
  t.device_key = device_key;
  t.capabilities = std::move(caps);
  t.expires = expires;
  t.server_sig = key_.sign(t.tbs());
  return t;
}

SmartAccess::SmartAccess(const crypto::EcdsaPublicKey& server_key,
                         const KeyServer* revocation)
    : server_key_(server_key), revocation_(revocation) {}

SmartAccess::Result SmartAccess::request(const AccessToken& token,
                                         Capability want, SimTime now,
                                         util::BytesView challenge,
                                         const crypto::EcdsaSignature& proof) {
  if (!crypto::ecdsa_verify(server_key_, token.tbs(), token.server_sig)) {
    return Result::kBadToken;
  }
  if (now > token.expires) return Result::kExpired;
  if (revocation_ && revocation_->is_revoked(token.device_id)) {
    return Result::kRevoked;
  }
  if (!token.capabilities.count(want)) return Result::kNoCapability;
  if (!crypto::ecdsa_verify(token.device_key, challenge, proof)) {
    return Result::kBadSignature;
  }
  return Result::kGranted;
}

}  // namespace aseck::access
