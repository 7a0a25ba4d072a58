#pragma once
// Smart-device car access (the "+1" layer innovations the paper lists:
// remote lock/unlock, passive start, phone-as-key). ECDH-established session
// keys, server-issued access tokens with expiry and capability bits, and
// immediate revocation — contrast with the fixed-key fob of pkes.hpp.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "crypto/ecdsa.hpp"
#include "crypto/gcm.hpp"
#include "util/time.hpp"

namespace aseck::access {

using util::SimTime;

enum class Capability { kUnlock, kStart, kTrunkOnly, kMonitor };

/// Access token: issued by the owner's cloud account for a device key.
struct AccessToken {
  std::string device_id;
  crypto::EcdsaPublicKey device_key;
  std::set<Capability> capabilities;
  SimTime expires;
  crypto::EcdsaSignature server_sig;

  util::Bytes tbs() const;
};

/// Owner cloud service: issues and revokes tokens.
class KeyServer {
 public:
  explicit KeyServer(crypto::Drbg& rng);

  const crypto::EcdsaPublicKey& public_key() const { return key_.public_key(); }

  AccessToken issue(const std::string& device_id,
                    const crypto::EcdsaPublicKey& device_key,
                    std::set<Capability> caps, SimTime expires);
  void revoke(const std::string& device_id) { revoked_.insert(device_id); }
  bool is_revoked(const std::string& device_id) const {
    return revoked_.count(device_id) > 0;
  }

 private:
  crypto::EcdsaPrivateKey key_;
  std::set<std::string> revoked_;
};

/// Vehicle-side smart access controller.
class SmartAccess {
 public:
  SmartAccess(const crypto::EcdsaPublicKey& server_key, const KeyServer* revocation);

  enum class Result { kGranted, kBadToken, kExpired, kRevoked, kNoCapability,
                      kBadSignature };

  /// Device presents its token and proves key possession by signing a fresh
  /// challenge (supplied by the car as `challenge` and signed as `proof`).
  Result request(const AccessToken& token, Capability want, SimTime now,
                 util::BytesView challenge, const crypto::EcdsaSignature& proof);

 private:
  crypto::EcdsaPublicKey server_key_;
  const KeyServer* revocation_;
};

}  // namespace aseck::access
