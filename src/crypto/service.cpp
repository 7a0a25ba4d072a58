#include "crypto/service.hpp"

namespace aseck::crypto {

const char* service_status_name(ServiceStatus s) {
  switch (s) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kBadHandle: return "bad_handle";
    case ServiceStatus::kNotOwner: return "not_owner";
    case ServiceStatus::kUsageDenied: return "usage_denied";
    case ServiceStatus::kSealed: return "sealed";
    case ServiceStatus::kBootLocked: return "boot_locked";
    case ServiceStatus::kBadState: return "bad_state";
    case ServiceStatus::kWrongAlgo: return "wrong_algo";
  }
  return "?";
}

const char* CryptoService::state_name(State s) {
  switch (s) {
    case State::kProvisioning: return "provisioning";
    case State::kSealed: return "sealed";
    case State::kOperational: return "operational";
    case State::kFailedBoot: return "failed_boot";
  }
  return "?";
}

CryptoService::CryptoService(std::string name) : name_(std::move(name)) {}

CryptoService::State CryptoService::state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_;
}

PartitionId CryptoService::register_partition(std::string name) {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != State::kProvisioning) return 0;
  partitions_.push_back(std::move(name));
  return static_cast<PartitionId>(partitions_.size());
}

const std::string& CryptoService::partition_name(PartitionId p) const {
  static const std::string kUnknown = "?";
  std::lock_guard<std::mutex> lk(mu_);
  if (p == 0 || p > partitions_.size()) return kUnknown;
  return partitions_[p - 1];
}

KeyHandle CryptoService::insert_locked(RawKey k) {
  const std::uint32_t id = next_id_++;
  keys_.emplace(id, std::move(k));
  return KeyHandle(id);
}

KeyHandle CryptoService::import_ecdsa(PartitionId owner,
                                      util::BytesView secret32,
                                      KeyPolicy policy) {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != State::kProvisioning || owner == 0 ||
      owner > partitions_.size() || secret32.size() != 32) {
    count(ServiceStatus::kBadState);
    return KeyHandle{};
  }
  RawKey k;
  k.algo = RawKey::Algo::kEcdsaP256;
  k.owner = owner;
  k.policy = policy;
  k.ecdsa = EcdsaPrivateKey::from_secret(secret32);
  return insert_locked(std::move(k));
}

KeyHandle CryptoService::generate_ecdsa(PartitionId owner, Drbg& rng,
                                        KeyPolicy policy) {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != State::kProvisioning || owner == 0 ||
      owner > partitions_.size()) {
    count(ServiceStatus::kBadState);
    return KeyHandle{};
  }
  RawKey k;
  k.algo = RawKey::Algo::kEcdsaP256;
  k.owner = owner;
  k.policy = policy;
  k.ecdsa = EcdsaPrivateKey::generate(rng);
  return insert_locked(std::move(k));
}

KeyHandle CryptoService::import_mac(PartitionId owner, const Block& key,
                                    KeyPolicy policy) {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != State::kProvisioning || owner == 0 ||
      owner > partitions_.size()) {
    count(ServiceStatus::kBadState);
    return KeyHandle{};
  }
  RawKey k;
  k.algo = RawKey::Algo::kAesCmac;
  k.owner = owner;
  k.policy = policy;
  k.mac_key = key;
  return insert_locked(std::move(k));
}

ServiceStatus CryptoService::destroy(PartitionId caller, KeyHandle h) {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != State::kProvisioning) {
    count(ServiceStatus::kBadState);
    return ServiceStatus::kBadState;
  }
  const auto it = keys_.find(h.id_);
  if (!h.valid() || it == keys_.end()) {
    count(ServiceStatus::kBadHandle);
    return ServiceStatus::kBadHandle;
  }
  if (it->second.owner != caller) {
    count(ServiceStatus::kNotOwner);
    return ServiceStatus::kNotOwner;
  }
  keys_.erase(it);
  ++ops_;
  return ServiceStatus::kOk;
}

void CryptoService::seal() {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ == State::kProvisioning) state_ = State::kSealed;
}

void CryptoService::on_measurement(bool passed) {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ != State::kSealed) return;
  state_ = passed ? State::kOperational : State::kFailedBoot;
}

void CryptoService::relock() {
  std::lock_guard<std::mutex> lk(mu_);
  if (state_ == State::kOperational || state_ == State::kFailedBoot) {
    state_ = State::kSealed;
  }
}

void CryptoService::count(ServiceStatus s) const {
  if (s != ServiceStatus::kOk) ++denials_[static_cast<std::uint8_t>(s)];
}

ServiceStatus CryptoService::check_locked(PartitionId caller, KeyHandle h,
                                          std::uint32_t usage,
                                          const RawKey** out) const {
  *out = nullptr;
  if (state_ == State::kSealed) return ServiceStatus::kSealed;
  const auto it = keys_.find(h.id_);
  if (!h.valid() || it == keys_.end()) return ServiceStatus::kBadHandle;
  const RawKey& k = it->second;
  if (k.owner != caller) return ServiceStatus::kNotOwner;
  if ((k.policy.usage & usage) != usage) return ServiceStatus::kUsageDenied;
  // SHE semantics: a failed measurement keeps boot-protected keys locked;
  // everything else keeps working (limp-home still needs diag MACs).
  if (k.policy.boot_protected && state_ == State::kFailedBoot) {
    return ServiceStatus::kBootLocked;
  }
  *out = &k;
  return ServiceStatus::kOk;
}

ServiceStatus CryptoService::sign(PartitionId caller, KeyHandle h,
                                  util::BytesView msg,
                                  EcdsaSignature* out) const {
  return sign_digest(caller, h, sha256(msg), out);
}

ServiceStatus CryptoService::sign_digest(PartitionId caller, KeyHandle h,
                                         const Digest& digest,
                                         EcdsaSignature* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const RawKey* k = nullptr;
  ServiceStatus st = check_locked(caller, h, kUsageSign, &k);
  if (st == ServiceStatus::kOk && k->algo != RawKey::Algo::kEcdsaP256) {
    st = ServiceStatus::kWrongAlgo;
  }
  if (st != ServiceStatus::kOk) {
    count(st);
    return st;
  }
  *out = k->ecdsa->sign_digest(digest);
  ++ops_;
  return ServiceStatus::kOk;
}

ServiceStatus CryptoService::mac(PartitionId caller, KeyHandle h,
                                 util::BytesView msg, Block* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const RawKey* k = nullptr;
  ServiceStatus st = check_locked(caller, h, kUsageMac, &k);
  if (st == ServiceStatus::kOk && k->algo != RawKey::Algo::kAesCmac) {
    st = ServiceStatus::kWrongAlgo;
  }
  if (st != ServiceStatus::kOk) {
    count(st);
    return st;
  }
  *out = aes_cmac(util::BytesView(k->mac_key.data(), k->mac_key.size()), msg);
  ++ops_;
  return ServiceStatus::kOk;
}

ServiceStatus CryptoService::export_public(KeyHandle h,
                                           EcdsaPublicKey* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = keys_.find(h.id_);
  if (!h.valid() || it == keys_.end()) {
    count(ServiceStatus::kBadHandle);
    return ServiceStatus::kBadHandle;
  }
  if (it->second.algo != RawKey::Algo::kEcdsaP256) {
    count(ServiceStatus::kWrongAlgo);
    return ServiceStatus::kWrongAlgo;
  }
  *out = it->second.ecdsa->public_key();
  ++ops_;
  return ServiceStatus::kOk;
}

ServiceStatus CryptoService::export_secret(PartitionId caller, KeyHandle h,
                                           util::Bytes* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const RawKey* k = nullptr;
  const ServiceStatus st = check_locked(caller, h, kUsageExport, &k);
  if (st != ServiceStatus::kOk) {
    count(st);
    return st;
  }
  if (k->algo == RawKey::Algo::kEcdsaP256) {
    *out = k->ecdsa->scalar().to_bytes();
  } else {
    out->assign(k->mac_key.begin(), k->mac_key.end());
  }
  ++ops_;
  return ServiceStatus::kOk;
}

std::size_t CryptoService::key_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return keys_.size();
}

std::uint64_t CryptoService::ops() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ops_;
}

std::uint64_t CryptoService::denials(ServiceStatus s) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = denials_.find(static_cast<std::uint8_t>(s));
  return it == denials_.end() ? 0 : it->second;
}

std::string CryptoService::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"service\":\"" + name_ + "\",\"state\":\"" +
                    state_name(state_) + "\",\"partitions\":[";
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (i) out += ",";
    out += "\"" + partitions_[i] + "\"";
  }
  out += "],\"keys\":" + std::to_string(keys_.size()) +
         ",\"ops\":" + std::to_string(ops_) + ",\"denials\":{";
  bool first = true;
  for (const auto& [st, c] : denials_) {
    if (!first) out += ",";
    first = false;
    out += "\"" +
           std::string(service_status_name(static_cast<ServiceStatus>(st))) +
           "\":" + std::to_string(c);
  }
  out += "}}";
  return out;
}

}  // namespace aseck::crypto
