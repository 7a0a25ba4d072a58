#pragma once
// Uptane repository (used both as the Director and as the Image repo).
// Holds the four role keys, publishes signed metadata, and stores images.
// The Director personalizes `targets` per vehicle; the Image repo publishes
// the full catalogue.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/service.hpp"
#include "ota/metadata.hpp"
#include "sim/faultplan.hpp"

namespace aseck::ota {

/// Everything a client downloads in one refresh.
struct MetadataBundle {
  Signed<RootMeta> root;
  Signed<TargetsMeta> targets;
  Signed<SnapshotMeta> snapshot;
  Signed<TimestampMeta> timestamp;
};

/// Faults (sim::FaultHook): while a kOutage window holds the port down the
/// repository refuses all downloads.
class Repository : public sim::FaultHook {
 public:
  /// Creates a repository with fresh role keys. `expiry` applies to all
  /// roles initially (timestamp typically re-signed frequently).
  Repository(crypto::Drbg& rng, std::string name, SimTime expiry);

  /// Adds/updates an image in `targets` and stores its bytes for download.
  void add_target(const std::string& image_name, const util::Bytes& image,
                  std::uint32_t version, const std::string& hardware_id);

  /// Re-signs all metadata (bumps targets/snapshot/timestamp versions).
  void publish(SimTime now);

  /// Current signed metadata bundle.
  const MetadataBundle& metadata() const { return bundle_; }
  /// Immutable generation-numbered snapshot of the current bundle. The copy
  /// is made at most once per generation (copy-on-write): every fetch until
  /// the next publish/rotation shares the same `shared_ptr`, so a wave of a
  /// million vehicles costs one MetadataBundle copy instead of one each —
  /// the E21 bench preamble measures the win. The pointed-to bundle never
  /// mutates; republishing produces a fresh snapshot under a new generation.
  std::shared_ptr<const MetadataBundle> snapshot() const;
  /// Monotonic metadata generation: bumped by publish(), rotate_key(), and
  /// mutable_bundle() (the attack hook hands out a mutable reference, so the
  /// repository must assume the bundle changed).
  std::uint64_t generation() const { return generation_; }
  /// Image download; returns nullptr if unknown or unavailable (outage).
  const util::Bytes* download(const std::string& image_name) const;
  /// Byte-range download for resumable fetch: bytes [offset, offset+max_len)
  /// of the image (short at EOF). nullopt when unknown, unavailable, or the
  /// offset is past the end.
  std::optional<util::Bytes> download_range(const std::string& image_name,
                                            std::size_t offset,
                                            std::size_t max_len) const;

  /// False while an injected outage window is active.
  bool available() const { return !fault_port_ || !fault_port_->down(); }

  /// Initial trusted root for provisioning clients.
  const Signed<RootMeta>& trusted_root() const { return bundle_.root; }

  // --- key compromise / rotation experiments --------------------------------
  /// Returns the private key of a role (the "compromise" primitive in E5).
  /// Role keys are provisioned with kUsageExport exactly so this attack
  /// surface stays modelable; the returned key is reconstructed from the
  /// service's export and signs bit-identically (deterministic ECDSA).
  const crypto::EcdsaPrivateKey& role_key(Role r) const;
  /// Replaces a role's key, bumping root version (key rotation). Clients
  /// accept the new root because it is signed with the *old* root key too.
  void rotate_key(crypto::Drbg& rng, Role r, SimTime now);

  /// Direct mutable access to the bundle for attack construction in tests
  /// and benches (an attacker who stole role keys forges metadata).
  MetadataBundle& mutable_bundle() {
    invalidate_snapshot();
    return bundle_;
  }

  /// Re-sign helpers exposed for attack scenarios: sign `body` with this
  /// repository's key for role `r`.
  template <typename Body>
  void sign_role(Signed<Body>& s, Role r) const {
    s.signatures.clear();
    s.signatures.push_back(sign_role_payload(r, s.body.serialize()));
  }

 private:
  void rebuild_root(SimTime now, const crypto::KeyHandle* old_root_key);
  /// Signs `payload` with the role's service-held key (keyid + signature).
  Signature sign_role_payload(Role r, util::BytesView payload) const;
  Signature sign_with(crypto::KeyHandle h, util::BytesView payload) const;
  crypto::EcdsaPublicKey public_key(Role r) const;
  void invalidate_snapshot() {
    ++generation_;
    snapshot_.reset();
  }

  SimTime expiry_;
  /// Backend HSM: never sealed (kProvisioning), so runtime key rotation
  /// keeps working while all role keys live behind the service boundary.
  crypto::CryptoService hsm_;
  crypto::PartitionId part_ = 0;
  std::map<Role, crypto::KeyHandle> keys_;
  /// role_key() cache: reconstructed-from-export private keys (stable
  /// references for the E5 compromise experiments). Invalidated on rotation.
  mutable std::map<Role, crypto::EcdsaPrivateKey> exported_;
  std::map<std::string, util::Bytes> images_;
  MetadataBundle bundle_;
  std::uint64_t generation_ = 0;
  mutable std::shared_ptr<const MetadataBundle> snapshot_;  // lazy, per gen
};

}  // namespace aseck::ota
