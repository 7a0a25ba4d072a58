#include "core/policy.hpp"

#include <cstring>
#include <stdexcept>

namespace aseck::core {

std::optional<std::int64_t> PolicyValue::as_int() const {
  if (kind_ == Kind::kInt) return i_;
  return std::nullopt;
}
std::optional<double> PolicyValue::as_double() const {
  if (kind_ == Kind::kDouble) return d_;
  if (kind_ == Kind::kInt) return static_cast<double>(i_);
  return std::nullopt;
}
std::optional<std::string> PolicyValue::as_string() const {
  if (kind_ == Kind::kString) return s_;
  return std::nullopt;
}
std::optional<bool> PolicyValue::as_bool() const {
  if (kind_ == Kind::kBool) return b_;
  return std::nullopt;
}

util::Bytes PolicyValue::serialize() const {
  util::Bytes out;
  out.reserve(10 + (kind_ == Kind::kString ? s_.size() : 0));
  out.push_back(static_cast<std::uint8_t>(kind_));
  switch (kind_) {
    case Kind::kInt:
      util::append_be(out, static_cast<std::uint64_t>(i_), 8);
      break;
    case Kind::kDouble: {
      std::uint64_t bits;
      std::memcpy(&bits, &d_, 8);
      util::append_be(out, bits, 8);
      break;
    }
    case Kind::kString:
      out.insert(out.end(), s_.begin(), s_.end());
      out.push_back(0);
      break;
    case Kind::kBool:
      out.push_back(b_ ? 1 : 0);
      break;
  }
  return out;
}

util::Bytes SecurityPolicy::serialize() const {
  util::Bytes out;
  util::append_be(out, version, 4);
  out.insert(out.end(), name.begin(), name.end());
  out.push_back(0);
  for (const auto& [key, value] : values) {
    out.insert(out.end(), key.begin(), key.end());
    out.push_back(0);
    const util::Bytes vb = value.serialize();
    out.insert(out.end(), vb.begin(), vb.end());
  }
  for (const auto& rule : firewall_rules) {
    out.insert(out.end(), rule.from_domain.begin(), rule.from_domain.end());
    out.push_back(0);
    out.insert(out.end(), rule.to_domain.begin(), rule.to_domain.end());
    out.push_back(0);
    util::append_be(out, rule.id_min, 4);
    util::append_be(out, rule.id_max, 4);
    out.push_back(rule.allow ? 1 : 0);
    util::append_be(out, rule.max_dlc ? (*rule.max_dlc + 1) : 0, 2);
  }
  return out;
}

std::int64_t SecurityPolicy::get_int(const std::string& key,
                                     std::int64_t def) const {
  const auto it = values.find(key);
  if (it == values.end()) return def;
  return it->second.as_int().value_or(def);
}
double SecurityPolicy::get_double(const std::string& key, double def) const {
  const auto it = values.find(key);
  if (it == values.end()) return def;
  return it->second.as_double().value_or(def);
}
std::string SecurityPolicy::get_string(const std::string& key,
                                       std::string def) const {
  const auto it = values.find(key);
  if (it == values.end()) return def;
  return it->second.as_string().value_or(def);
}
bool SecurityPolicy::get_bool(const std::string& key, bool def) const {
  const auto it = values.find(key);
  if (it == values.end()) return def;
  return it->second.as_bool().value_or(def);
}

const char* SecurityPolicy::first_invalid_key() const {
  for (const keys::Range& r : keys::kRanges) {
    const auto it = values.find(r.key);
    if (it == values.end()) continue;
    const std::optional<double> v = r.integral && !it->second.as_int()
                                         ? std::nullopt
                                         : it->second.as_double();
    if (!v || !(*v >= r.min && *v <= r.max)) return r.key;  // NaN fails too
  }
  return nullptr;
}

SignedPolicy SignedPolicy::sign(SecurityPolicy p,
                                const crypto::EcdsaPrivateKey& key) {
  SignedPolicy sp;
  sp.signature = key.sign(p.serialize());
  sp.policy = std::move(p);
  return sp;
}

PolicyStore::PolicyStore(crypto::EcdsaPublicKey authority,
                         SecurityPolicy initial)
    : authority_(std::move(authority)), active_(std::move(initial)) {
  if (const char* key = active_.first_invalid_key()) {
    throw std::invalid_argument(std::string("PolicyStore: invalid ") + key);
  }
}

PolicyStore::UpdateResult PolicyStore::apply_update(const SignedPolicy& update) {
  if (!crypto::ecdsa_verify(authority_, update.policy.serialize(),
                            update.signature)) {
    ++rejected_;
    return UpdateResult::kBadSignature;
  }
  if (update.policy.version <= active_.version) {
    ++rejected_;
    return UpdateResult::kVersionRollback;
  }
  if (update.policy.first_invalid_key()) {
    ++rejected_;
    return UpdateResult::kInvalidValue;
  }
  active_ = update.policy;
  ++accepted_;
  for (const auto& l : listeners_) l(active_);
  return UpdateResult::kAccepted;
}

}  // namespace aseck::core
