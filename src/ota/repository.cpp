#include "ota/repository.hpp"

#include <algorithm>

namespace aseck::ota {

Repository::Repository(crypto::Drbg& rng, std::string name, SimTime expiry)
    : expiry_(expiry), hsm_(name + "-hsm") {
  part_ = hsm_.register_partition("uptane");
  // Same DRBG draw order as the pre-service code (kRoot..kTimestamp), so
  // seeded repositories keep their exact key material across the migration.
  crypto::KeyPolicy policy;
  policy.usage = crypto::kUsageSign | crypto::kUsageExport;
  for (Role r : {Role::kRoot, Role::kTargets, Role::kSnapshot, Role::kTimestamp}) {
    keys_[r] = hsm_.generate_ecdsa(part_, rng, policy);
  }
  bundle_.targets.body.version = 0;
  bundle_.snapshot.body.version = 0;
  bundle_.timestamp.body.version = 0;
  rebuild_root(SimTime::zero(), nullptr);
  publish(SimTime::zero());
}

crypto::EcdsaPublicKey Repository::public_key(Role r) const {
  crypto::EcdsaPublicKey pub;
  hsm_.export_public(keys_.at(r), &pub);
  return pub;
}

Signature Repository::sign_with(crypto::KeyHandle h,
                                util::BytesView payload) const {
  Signature s;
  crypto::EcdsaPublicKey pub;
  hsm_.export_public(h, &pub);
  s.keyid = key_id(pub);
  hsm_.sign(part_, h, payload, &s.sig);
  return s;
}

Signature Repository::sign_role_payload(Role r, util::BytesView payload) const {
  return sign_with(keys_.at(r), payload);
}

void Repository::rebuild_root(SimTime now, const crypto::KeyHandle* old_root_key) {
  RootMeta& root = bundle_.root.body;
  root.version += (root.roles.empty() ? 0 : 1);
  if (root.roles.empty()) root.version = 1;
  // Root is long-lived (rotated rarely); online roles expire fast so a
  // freeze attack has bounded staleness.
  root.expires = now + expiry_ * 100;
  root.roles.clear();
  root.keys.clear();
  for (const auto& [role, handle] : keys_) {
    const crypto::EcdsaPublicKey pub = public_key(role);
    RootMeta::RoleKeys rk;
    rk.threshold = 1;
    rk.key_ids.push_back(key_id(pub));
    root.roles[role] = rk;
    root.keys[key_id_hex(rk.key_ids[0])] = pub;
  }
  bundle_.root.signatures.clear();
  const util::Bytes payload = root.serialize();
  // Cross-sign with the previous root key so clients can chain trust.
  if (old_root_key) {
    bundle_.root.signatures.push_back(sign_with(*old_root_key, payload));
  }
  bundle_.root.signatures.push_back(
      sign_with(keys_.at(Role::kRoot), payload));
}

void Repository::add_target(const std::string& image_name,
                            const util::Bytes& image, std::uint32_t version,
                            const std::string& hardware_id) {
  TargetInfo info;
  info.sha256 = crypto::sha256_bytes(image);
  info.length = image.size();
  info.version = version;
  info.hardware_id = hardware_id;
  bundle_.targets.body.targets[image_name] = std::move(info);
  images_[image_name] = image;
}

std::shared_ptr<const MetadataBundle> Repository::snapshot() const {
  if (!snapshot_) snapshot_ = std::make_shared<const MetadataBundle>(bundle_);
  return snapshot_;
}

void Repository::publish(SimTime now) {
  invalidate_snapshot();
  TargetsMeta& targets = bundle_.targets.body;
  targets.version += 1;
  targets.expires = now + expiry_;
  sign_role(bundle_.targets, Role::kTargets);

  SnapshotMeta& snap = bundle_.snapshot.body;
  snap.version += 1;
  snap.expires = now + expiry_;
  snap.targets_version = targets.version;
  sign_role(bundle_.snapshot, Role::kSnapshot);

  TimestampMeta& ts = bundle_.timestamp.body;
  ts.version += 1;
  ts.expires = now + expiry_;
  ts.snapshot_version = snap.version;
  ts.snapshot_hash = crypto::sha256_bytes(snap.serialize());
  sign_role(bundle_.timestamp, Role::kTimestamp);
}

const util::Bytes* Repository::download(const std::string& image_name) const {
  if (!available()) return nullptr;
  const auto it = images_.find(image_name);
  return it == images_.end() ? nullptr : &it->second;
}

std::optional<util::Bytes> Repository::download_range(
    const std::string& image_name, std::size_t offset,
    std::size_t max_len) const {
  if (!available()) return std::nullopt;
  const auto it = images_.find(image_name);
  if (it == images_.end() || offset > it->second.size()) return std::nullopt;
  const std::size_t n = std::min(max_len, it->second.size() - offset);
  const auto first = it->second.begin() + static_cast<std::ptrdiff_t>(offset);
  return util::Bytes(first, first + static_cast<std::ptrdiff_t>(n));
}

const crypto::EcdsaPrivateKey& Repository::role_key(Role r) const {
  const auto it = exported_.find(r);
  if (it != exported_.end()) return it->second;
  // The compromise primitive: role keys carry kUsageExport, so an attacker
  // with repository access walks off with the scalar. Deterministic ECDSA
  // makes the reconstructed key sign bit-identically to the service's copy.
  util::Bytes secret;
  hsm_.export_secret(part_, keys_.at(r), &secret);
  return exported_.emplace(r, crypto::EcdsaPrivateKey::from_secret(secret))
      .first->second;
}

void Repository::rotate_key(crypto::Drbg& rng, Role r, SimTime now) {
  invalidate_snapshot();
  exported_.erase(r);  // any stolen copy is now stale
  // Keep the old handle around: a rotated *root* still cross-signs the new
  // root metadata so clients can chain trust; then the key is destroyed.
  const crypto::KeyHandle old = keys_.at(r);
  crypto::KeyPolicy policy;
  policy.usage = crypto::kUsageSign | crypto::kUsageExport;
  keys_[r] = hsm_.generate_ecdsa(part_, rng, policy);
  rebuild_root(now, r == Role::kRoot ? &old : nullptr);
  hsm_.destroy(part_, old);
  publish(now);
}

}  // namespace aseck::ota
