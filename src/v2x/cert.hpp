#pragma once
// IEEE 1609.2-flavored certificates and PKI for V2X.
//
// Explicit certificates with ECDSA-P256 keys, PSID (application) permissions,
// validity periods, a two-level CA hierarchy (root -> enrollment/pseudonym
// CA), certificate revocation lists, and pseudonym certificate pools used
// for privacy (paper Section 4.2, "Privacy Scenario").

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <memory>

#include "crypto/ecdsa.hpp"
#include "crypto/service.hpp"
#include "crypto/verify_engine.hpp"
#include "util/bytes.hpp"
#include "util/lru.hpp"
#include "util/time.hpp"

namespace aseck::v2x {

using util::SimTime;

/// Provider Service Identifier (application class) — subset used here.
enum class Psid : std::uint32_t {
  kBsm = 0x20,              // vehicle safety messaging
  kIntersection = 0x21,     // SPaT/MAP
  kRoadsideAlert = 0x22,
  kMisbehaviorReport = 0x26,
  kOtaDistribution = 0x80,
};

/// 8-byte certificate identifier (hash of the serialized tbs).
using CertId = std::array<std::uint8_t, 8>;
std::string cert_id_hex(const CertId& id);

struct Certificate {
  std::string subject;            // diagnostic name (not on the wire in 1609.2)
  CertId issuer_id{};             // all-zero = self-signed (root)
  SimTime valid_from = SimTime::zero();
  SimTime valid_until = SimTime::zero();
  std::set<Psid> app_permissions;
  bool is_ca = false;             // may issue certificates
  crypto::EcdsaPublicKey verify_key;
  crypto::EcdsaSignature signature;  // by issuer over tbs_bytes()

  /// To-be-signed serialization (everything except the signature).
  util::Bytes tbs_bytes() const;
  /// Certificate id = first 8 bytes of SHA-256(tbs).
  CertId id() const;
  bool valid_at(SimTime t) const { return t >= valid_from && t <= valid_until; }
  bool permits(Psid p) const { return app_permissions.count(p) > 0; }
};

/// Certificate revocation list.
class Crl {
 public:
  void revoke(const CertId& id) { revoked_.insert(id); }
  bool is_revoked(const CertId& id) const { return revoked_.count(id) > 0; }
  std::size_t size() const { return revoked_.size(); }

 private:
  struct Less {
    bool operator()(const CertId& a, const CertId& b) const { return a < b; }
  };
  std::set<CertId, Less> revoked_;
};

/// A certificate authority: its signing key lives inside a backend
/// CryptoService (never sealed, so issuance keeps working at runtime) and is
/// reachable only through the CA's opaque handle — `issue()` is a service
/// sign call, and nothing outside the service can read the key. Pseudonym
/// *end-entity* keys are different: they are generated for, and handed to,
/// the requesting vehicle — that is the provisioning channel, not a leak.
class CertificateAuthority {
 public:
  /// Creates a self-signed root CA.
  static CertificateAuthority make_root(crypto::Drbg& rng, std::string name,
                                        SimTime valid_until);
  /// Creates a subordinate CA certified by `parent`.
  static CertificateAuthority make_sub(crypto::Drbg& rng, std::string name,
                                       const CertificateAuthority& parent,
                                       SimTime valid_until);

  const Certificate& certificate() const { return cert_; }

  /// Issues an end-entity certificate.
  Certificate issue(const std::string& subject,
                    const crypto::EcdsaPublicKey& key, std::set<Psid> psids,
                    SimTime from, SimTime until, bool is_ca = false) const;

  /// Issues a batch of short-lived pseudonym certificates covering
  /// [from, from + n * lifetime) back-to-back. Each gets a fresh key; the
  /// matching private keys are returned alongside.
  struct PseudonymBatch {
    std::vector<Certificate> certs;
    std::vector<crypto::EcdsaPrivateKey> keys;
  };
  PseudonymBatch issue_pseudonyms(crypto::Drbg& rng, std::size_t n,
                                  SimTime from, SimTime lifetime) const;

 private:
  CertificateAuthority(std::shared_ptr<crypto::CryptoService> hsm,
                       crypto::PartitionId part, crypto::KeyHandle key,
                       Certificate cert)
      : hsm_(std::move(hsm)), part_(part), key_(key), cert_(std::move(cert)) {}
  crypto::EcdsaSignature sign_tbs(util::BytesView tbs) const;
  std::shared_ptr<crypto::CryptoService> hsm_;  // CAs are value types; shared
  crypto::PartitionId part_ = 0;
  crypto::KeyHandle key_;
  Certificate cert_;
};

/// Trust store: validates chains ending at a trusted root.
class TrustStore {
 public:
  void add_root(const Certificate& root) { roots_.push_back(root); }
  void add_intermediate(const Certificate& ca) { intermediates_.push_back(ca); }
  void set_crl(const Crl* crl) { crl_ = crl; }

  enum class Result {
    kOk,
    kExpired,
    kRevoked,
    kBadSignature,
    kUnknownIssuer,
    kPermissionDenied,
    kNotCa,
  };

  /// Validates `cert` at time `t` for use with `psid`. Chain signature
  /// checks are cached per certificate id (as production V2X stacks do);
  /// expiry, permissions, and revocation are re-checked on every call.
  Result validate(const Certificate& cert, SimTime t, Psid psid) const;

  static const char* result_name(Result r);

  /// Default bound for the chain-verdict cache. Under pseudonym rotation
  /// every rotation mints a fresh cert id, so an unbounded cache grows
  /// forever; LRU keeps the working set (live pseudonyms) and evicts
  /// retired ones.
  static constexpr std::size_t kDefaultChainCacheCapacity = 4096;
  void set_chain_cache_capacity(std::size_t cap) {
    chain_cache_.set_capacity(cap);
  }
  std::size_t chain_cache_size() const { return chain_cache_.size(); }
  std::uint64_t cache_hits() const { return chain_cache_.hits(); }
  std::uint64_t cache_evictions() const { return chain_cache_.evictions(); }

  /// Routes the expensive chain signature verifications through a shared
  /// VerifyEngine (result cache + crypto.verify.* metrics). Optional; when
  /// unset, ecdsa_verify is called directly.
  void set_verify_engine(crypto::VerifyEngine* engine) { engine_ = engine; }

 private:
  const Certificate* find_issuer(const CertId& id) const;
  Result validate_chain(const Certificate& cert, SimTime t) const;
  std::vector<Certificate> roots_;
  std::vector<Certificate> intermediates_;
  const Crl* crl_ = nullptr;
  crypto::VerifyEngine* engine_ = nullptr;
  // Cache: cert id -> chain-signature verdict (independent of t/psid),
  // bounded LRU so pseudonym churn cannot grow it without limit.
  mutable util::LruCache<CertId, Result> chain_cache_{
      kDefaultChainCacheCapacity};
};

}  // namespace aseck::v2x
