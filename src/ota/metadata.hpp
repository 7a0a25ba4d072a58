#pragma once
// Uptane-style signed metadata. Four roles per repository:
//   root      — trust anchor: role keys + thresholds, self-chained versions
//   targets   — image name -> (hash, length, version, hardware id)
//   snapshot  — versions of targets metadata (anti mix-and-match)
//   timestamp — hash+version of snapshot (anti freeze, cheap to poll)
//
// Two repositories (director + image repo) must agree on a target before a
// full-verification client installs it; this is the core Uptane defense the
// E5 experiment's compromise matrix exercises.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_engine.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace aseck::ota {

using util::SimTime;

enum class Role { kRoot, kTargets, kSnapshot, kTimestamp };

/// Key id = first 8 bytes of SHA-256 of the SEC1 public key.
using KeyId = std::array<std::uint8_t, 8>;
KeyId key_id(const crypto::EcdsaPublicKey& pub);
std::string key_id_hex(const KeyId& id);

struct TargetInfo {
  util::Bytes sha256;       // 32-byte image digest
  std::uint64_t length = 0;
  std::uint32_t version = 0;
  std::string hardware_id;  // which ECU class may install this

  util::Bytes serialize() const;
  friend bool operator==(const TargetInfo&, const TargetInfo&) = default;
};

/// Role bodies ---------------------------------------------------------------

// Each role body serializes to a tagged, length-explicit byte string and
// parses back strictly: unknown tags, truncated fields, counts that overrun
// the buffer, and trailing bytes all reject (std::nullopt) — there is no
// silent clamping anywhere, so `parse(serialize(x)) == x` and
// `serialize(*parse(b)) == b` are the E20 fuzzer's round-trip oracles.

struct RootMeta {
  std::uint32_t version = 1;
  SimTime expires;
  // role -> (threshold, authorized key ids); keys themselves are stored too.
  struct RoleKeys {
    std::uint32_t threshold = 1;
    std::vector<KeyId> key_ids;
    friend bool operator==(const RoleKeys&, const RoleKeys&) = default;
  };
  std::map<Role, RoleKeys> roles;
  std::map<std::string, crypto::EcdsaPublicKey> keys;  // keyid hex -> key

  util::Bytes serialize() const;
  static std::optional<RootMeta> parse(util::BytesView b);
  friend bool operator==(const RootMeta&, const RootMeta&) = default;
};

struct TargetsMeta {
  std::uint32_t version = 1;
  SimTime expires;
  std::map<std::string, TargetInfo> targets;  // image name -> info

  util::Bytes serialize() const;
  static std::optional<TargetsMeta> parse(util::BytesView b);
  friend bool operator==(const TargetsMeta&, const TargetsMeta&) = default;
};

struct SnapshotMeta {
  std::uint32_t version = 1;
  SimTime expires;
  std::uint32_t targets_version = 0;

  util::Bytes serialize() const;
  static std::optional<SnapshotMeta> parse(util::BytesView b);
  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

struct TimestampMeta {
  std::uint32_t version = 1;
  SimTime expires;
  std::uint32_t snapshot_version = 0;
  util::Bytes snapshot_hash;  // SHA-256 of serialized snapshot

  util::Bytes serialize() const;
  static std::optional<TimestampMeta> parse(util::BytesView b);
  friend bool operator==(const TimestampMeta&, const TimestampMeta&) = default;
};

/// A detached signature.
struct Signature {
  KeyId keyid{};
  crypto::EcdsaSignature sig;
};

/// Signed envelope: serialized body + signatures.
template <typename Body>
struct Signed {
  Body body;
  std::vector<Signature> signatures;
};

/// Signs `payload` with `key`, producing a Signature entry.
Signature sign_payload(const crypto::EcdsaPrivateKey& key,
                       util::BytesView payload);

/// Verifies that `payload` carries >= threshold valid signatures from the
/// authorized key set. When `engine` is supplied, the ECDSA checks run
/// through it (verify-result cache + crypto.verify.* metrics) — OTA clients
/// re-verify identical metadata on every poll cycle, so the cache turns the
/// steady-state cost into a hash lookup.
bool verify_threshold(util::BytesView payload,
                      const std::vector<Signature>& sigs,
                      const RootMeta::RoleKeys& authorized,
                      const std::map<std::string, crypto::EcdsaPublicKey>& keys,
                      crypto::VerifyEngine* engine = nullptr);

}  // namespace aseck::ota
