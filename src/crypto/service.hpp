#pragma once
// PSA-style crypto service boundary (ROADMAP O4): all long-lived key
// material lives INSIDE this service, behind opaque `KeyHandle`s with
// per-caller-partition usage policies — mirroring the TF-M reference split
// where the non-secure image reaches crypto only through the PSA IPC
// boundary and never touches a key byte.
//
// The isolation is enforced at compile time, not by convention: the only
// type that stores raw key material (`CryptoService::RawKey`) is declared in
// the service's private section, so code outside the service cannot even
// name it, let alone construct one. `KeyHandle`'s id constructor is private
// to the service too, so handles cannot be forged from integers — a caller
// owns exactly the handles the service returned to it at provisioning time
// (tests/boot_test.cpp pins both properties with static_asserts).
//
// Lifecycle mirrors SHE/measured-boot semantics end to end:
//
//   kProvisioning --seal()--> kSealed --on_measurement(ok)--> kOperational
//                                     \--on_measurement(!ok)-> kFailedBoot
//
//   * keys and partitions can only be created while kProvisioning;
//   * a sealed service performs NO private-key operations until the boot
//     chain reports its measurement (ecu::BootChain calls on_measurement);
//   * after a FAILED measurement, boot-protected keys stay locked forever
//     (until relock() + a passing re-measurement) while non-protected keys
//     keep working — exactly SHE's boot_protection flag, lifted to the
//     service boundary;
//   * relock() models a reboot: back to kSealed, awaiting measurement.
//
// Backend HSMs (the Uptane repository, V2X CAs) simply never seal: a
// kProvisioning service performs all operations, so factory/backend code
// keeps full agility (key rotation) while device-side services seal at the
// end of provisioning.
//
// Every operation and every denial is counted per status, deterministically
// (`to_json()` has no wall-clock content). All entry points take the mutex,
// so a service shared across VerifyPool producer threads is data-race-free
// (the tsan boot_test exercises exactly that).

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/cmac.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace aseck::crypto {

/// Caller identity at the service boundary; 0 = invalid. Partitions are
/// registered at provisioning time (e.g. "boot", "ota", "v2x").
using PartitionId = std::uint16_t;

/// PSA-style key usage flags (KeyPolicy::usage bitmask).
enum KeyUsage : std::uint32_t {
  kUsageSign = 1u << 0,    // ECDSA sign / sign_digest
  kUsageMac = 1u << 1,     // AES-CMAC generate/verify
  kUsageExport = 1u << 2,  // export_secret (PSA_KEY_USAGE_EXPORT)
};

/// Per-key policy fixed at creation (PSA: policies are immutable post-create).
struct KeyPolicy {
  std::uint32_t usage = 0;
  /// SHE boot_protection lifted to the service: unusable unless the measured
  /// boot chain reported a PASSING measurement.
  bool boot_protected = false;
};

/// Status of one service call (denials are counted per status).
enum class ServiceStatus : std::uint8_t {
  kOk = 0,
  kBadHandle,     // unknown/invalid handle
  kNotOwner,      // caller partition does not own the key
  kUsageDenied,   // policy lacks the requested usage bit
  kSealed,        // service sealed, measurement not yet reported
  kBootLocked,    // boot-protected key after a FAILED measurement
  kBadState,      // creation attempted outside kProvisioning
  kWrongAlgo,     // MAC op on an ECDSA key or vice versa
};
const char* service_status_name(ServiceStatus s);

/// Opaque reference to a key inside the service. Cannot be constructed from
/// an id by callers (the ctor is private to CryptoService) — a handle is
/// only ever obtained from the service that owns the key.
class KeyHandle {
 public:
  KeyHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class CryptoService;
  explicit KeyHandle(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

class CryptoService {
 public:
  enum class State : std::uint8_t {
    kProvisioning,  // factory: partitions/keys may be created, ops allowed
    kSealed,        // device sealed; everything locked until measurement
    kOperational,   // measurement passed; policy-gated ops allowed
    kFailedBoot,    // measurement failed; boot-protected keys stay locked
  };
  static const char* state_name(State s);

  explicit CryptoService(std::string name = "crypto");
  CryptoService(const CryptoService&) = delete;
  CryptoService& operator=(const CryptoService&) = delete;

  State state() const;

  // --- provisioning (kProvisioning only) ------------------------------------
  /// Registers a caller partition; returns its id (0 outside provisioning).
  PartitionId register_partition(std::string name);
  const std::string& partition_name(PartitionId p) const;

  /// Imports an ECDSA P-256 key from a 32-byte secret scalar.
  KeyHandle import_ecdsa(PartitionId owner, util::BytesView secret32,
                         KeyPolicy policy);
  /// Generates a fresh ECDSA key from the caller's DRBG (same draw sequence
  /// as EcdsaPrivateKey::generate, so migrating a call site is bit-compatible).
  KeyHandle generate_ecdsa(PartitionId owner, Drbg& rng, KeyPolicy policy);
  /// Imports a 128-bit AES-CMAC key.
  KeyHandle import_mac(PartitionId owner, const Block& key, KeyPolicy policy);
  /// Destroys a key (PSA psa_destroy_key; provisioning-state only — field
  /// rotation replaces key material via a fresh provisioning session).
  ServiceStatus destroy(PartitionId caller, KeyHandle h);

  // --- lifecycle -------------------------------------------------------------
  /// Ends provisioning; the service refuses everything until a measurement.
  void seal();
  /// Boot chain verdict: kSealed -> kOperational (passed) / kFailedBoot.
  /// Ignored unless sealed — a service cannot be talked into unlocking twice.
  void on_measurement(bool passed);
  /// Models a reboot: back to kSealed awaiting the next measurement.
  void relock();

  // --- operations ------------------------------------------------------------
  /// ECDSA sign over a message (SHA-256 internally). Needs kUsageSign.
  ServiceStatus sign(PartitionId caller, KeyHandle h, util::BytesView msg,
                     EcdsaSignature* out) const;
  /// ECDSA sign over a precomputed digest. Needs kUsageSign.
  ServiceStatus sign_digest(PartitionId caller, KeyHandle h,
                            const Digest& digest, EcdsaSignature* out) const;
  /// AES-CMAC over a message. Needs kUsageMac.
  ServiceStatus mac(PartitionId caller, KeyHandle h, util::BytesView msg,
                    Block* out) const;
  /// Public half of an ECDSA key. Public keys are not secret: allowed in any
  /// state, any partition — only the handle must be valid.
  ServiceStatus export_public(KeyHandle h, EcdsaPublicKey* out) const;
  /// Raw secret export — the PSA_KEY_USAGE_EXPORT escape hatch that the E5
  /// key-compromise experiments rely on. Needs kUsageExport AND ownership.
  ServiceStatus export_secret(PartitionId caller, KeyHandle h,
                              util::Bytes* out) const;

  // --- observation -----------------------------------------------------------
  std::size_t key_count() const;
  std::uint64_t ops() const;       // successful operations
  std::uint64_t denials(ServiceStatus s) const;  // denied operations
  /// Deterministic export (state, partitions, op/denial counters).
  std::string to_json() const;

 private:
  // The ONLY type in the codebase that stores raw key material. Nested in
  // the private section: non-service code cannot name CryptoService::RawKey,
  // which is the compile-time isolation boundary O4 asks for.
  struct RawKey {
    enum class Algo : std::uint8_t { kEcdsaP256, kAesCmac };
    Algo algo = Algo::kEcdsaP256;
    PartitionId owner = 0;
    KeyPolicy policy;
    std::optional<EcdsaPrivateKey> ecdsa;
    Block mac_key{};
  };

  /// Locates the key and checks state + ownership + usage. Caller holds mu_.
  ServiceStatus check_locked(PartitionId caller, KeyHandle h,
                             std::uint32_t usage, const RawKey** out) const;
  KeyHandle insert_locked(RawKey k);
  void count(ServiceStatus s) const;

  mutable std::mutex mu_;
  std::string name_;
  State state_ = State::kProvisioning;
  std::vector<std::string> partitions_;  // id = index + 1
  std::map<std::uint32_t, RawKey> keys_;
  std::uint32_t next_id_ = 1;
  mutable std::uint64_t ops_ = 0;
  mutable std::map<std::uint8_t, std::uint64_t> denials_;  // status -> count
};

}  // namespace aseck::crypto
