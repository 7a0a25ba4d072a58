#pragma once
// Centralized, declarative security policy — the flexible architecture the
// paper points to (refs [20], [3], [4]): security requirements are specified
// once, centrally, and compiled into per-layer configurations; policies are
// versioned, signed by the OEM security authority, and updatable in-field
// over the OTA channel. This is the mechanism that makes the 4+1
// architecture *extensible*: new countermeasures and parameter changes ship
// as policy updates instead of ECU firmware rewrites.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "gateway/gateway.hpp"
#include "util/time.hpp"

namespace aseck::core {

using util::SimTime;

/// Typed policy values.
class PolicyValue {
 public:
  PolicyValue() : kind_(Kind::kInt), i_(0) {}
  PolicyValue(std::int64_t v) : kind_(Kind::kInt), i_(v) {}
  PolicyValue(double v) : kind_(Kind::kDouble), d_(v) {}
  PolicyValue(std::string v) : kind_(Kind::kString), s_(std::move(v)) {}
  PolicyValue(bool v) : kind_(Kind::kBool), b_(v) {}

  std::optional<std::int64_t> as_int() const;
  std::optional<double> as_double() const;
  std::optional<std::string> as_string() const;
  std::optional<bool> as_bool() const;

  util::Bytes serialize() const;

 private:
  enum class Kind : std::uint8_t { kInt, kDouble, kString, kBool };
  Kind kind_;
  std::int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
  bool b_ = false;
};

/// Well-known policy keys (extensible: unknown keys are carried through for
/// future consumers — the "reserved for future use" configurations whose
/// verification burden Section 6 discusses).
namespace keys {
inline constexpr const char* kSecocMacBytes = "network.secoc.mac_bytes";
inline constexpr const char* kSecocFreshnessBytes = "network.secoc.freshness_bytes";
inline constexpr const char* kSecocSuite = "network.secoc.suite";
inline constexpr const char* kIdsSensitivity = "network.ids.sensitivity";
inline constexpr const char* kGatewayDefaultDeny = "gateway.default_deny";
inline constexpr const char* kGatewayRateLimit = "gateway.rate_limit_fps";
inline constexpr const char* kV2xMaxAgeMs = "interfaces.v2x.max_age_ms";
inline constexpr const char* kV2xRelevanceM = "interfaces.v2x.relevance_m";
inline constexpr const char* kPseudonymPeriodS = "interfaces.v2x.pseudonym_period_s";
inline constexpr const char* kPkesRttLimitUs = "access.pkes.rtt_limit_us";
inline constexpr const char* kModeTable = "modes.active_profile";

/// Accepted numeric values, inclusive. PolicyStore enforces them, so
/// compile_policy() can trust a policy that came through a PolicyStore;
/// LayerManager::apply() on a hand-built policy is not checked.
struct Range { const char* key; bool integral; double min, max; };
inline constexpr Range kRanges[] = {
    {kSecocMacBytes, true, 1, 16},  // SecOcChannel's truncation bound
    {kSecocFreshnessBytes, true, 0, 8},
    {kIdsSensitivity, false, 0, 100},      // sigma threshold
    {kGatewayRateLimit, false, 0, 1e6},    // frames/s; 0 = no limit
    {kV2xMaxAgeMs, true, 1, 3'600'000},    // up to an hour
    {kV2xRelevanceM, false, 0, 1e6},
    {kPseudonymPeriodS, true, 1, 31'536'000},  // up to a year
    {kPkesRttLimitUs, false, 0, 1e6},      // 0 = no distance bounding
};
}  // namespace keys

/// The policy document.
struct SecurityPolicy {
  std::uint32_t version = 1;
  std::string name = "default";
  std::map<std::string, PolicyValue> values;
  std::vector<gateway::FirewallRule> firewall_rules;

  util::Bytes serialize() const;

  /// Typed getters with defaults.
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  std::string get_string(const std::string& key, std::string def) const;
  bool get_bool(const std::string& key, bool def) const;
  /// First key whose value is NaN, outside keys::kRanges or of the wrong
  /// kind (an integral key must hold an int), or nullptr.
  const char* first_invalid_key() const;
};

/// Signed policy envelope for in-field distribution.
struct SignedPolicy {
  SecurityPolicy policy;
  crypto::EcdsaSignature signature;

  static SignedPolicy sign(SecurityPolicy p, const crypto::EcdsaPrivateKey& key);
};

/// Device-side policy store: verifies signature, version monotonicity and
/// value ranges before accepting an update (the OTA-delivered policy path).
class PolicyStore {
 public:
  /// Throws std::invalid_argument when `initial` has an invalid value.
  explicit PolicyStore(crypto::EcdsaPublicKey authority, SecurityPolicy initial);

  /// A rejected update leaves the active policy as it was.
  enum class UpdateResult { kAccepted, kBadSignature, kVersionRollback, kInvalidValue };
  UpdateResult apply_update(const SignedPolicy& update);

  const SecurityPolicy& active() const { return active_; }
  std::uint32_t updates_accepted() const { return accepted_; }
  std::uint32_t updates_rejected() const { return rejected_; }

  /// Observers notified on accepted updates (the layer manager hooks here).
  using Listener = std::function<void(const SecurityPolicy&)>;
  void subscribe(Listener l) { listeners_.push_back(std::move(l)); }

 private:
  crypto::EcdsaPublicKey authority_;
  SecurityPolicy active_;
  std::uint32_t accepted_ = 0;
  std::uint32_t rejected_ = 0;
  std::vector<Listener> listeners_;
};

}  // namespace aseck::core
