#pragma once
// Measured boot chain (ROADMAP O4): staged boot ROM -> SHE secure-boot
// boot-MAC -> signature-verified app slot, with a PCR-style measurement
// register, signed attestation evidence, and deterministic degradation.
//
//   stage 0  ROM     measures the second-stage bootloader against a fused
//                    digest anchor (the immutable root of trust);
//   stage 1  SHE     CMD_BOOT_MAC over the bootloader (ecu::She) — a MAC
//                    mismatch does NOT halt boot (SHE semantics): the chain
//                    continues but boot-protected keys stay locked;
//   stage 2  APP     Flash::boot() recovery picks the active A/B slot, then
//                    the slot image's ECDSA signature is checked against the
//                    trust anchor provisioned in the KvStore (key
//                    "boot.anchor", per-image signatures "boot.sig.<hex>").
//
// Every stage extends a measurement register (PCR-style SHA-256 chaining)
// whether it passes or fails; the final verdict gates the CryptoService
// (`on_measurement`), so boot-protected service keys unlock ONLY after a
// fully-measured boot — SHE's boot_protection flag carried end to end.
//
// Degradation is deterministic: per-stage retry -> fall back to the other
// flash slot (revert) -> ROM-resident limp-home recovery image. A hung
// stage (modeled via the stage hook) leaves the chain in `hung()`;
// safety::BootGuard wires that to a HealthSupervisor entity whose
// escalation ladder re-runs the chain instead of letting the ECU wedge.
//
// Attestation: `attest(nonce)` emits signed `AttestationEvidence` (uid,
// boot count, mode, measurement log, PCR) with a strict serialize/parse
// round trip; `verify_evidence` checks nonce freshness, PCR consistency,
// and the ECDSA signature. Evidence is also summarized on the TraceBus.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "crypto/service.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_engine.hpp"
#include "ecu/flash.hpp"
#include "ecu/kvstore.hpp"
#include "ecu/she.hpp"
#include "sim/telemetry.hpp"
#include "util/time.hpp"

namespace aseck::ecu {

enum class BootStage : std::uint8_t { kRom = 0, kBootloader = 1, kApp = 2 };
const char* boot_stage_name(BootStage s);

enum class BootMode : std::uint8_t {
  kNone = 0,      // never booted / chain hung
  kNormal = 1,    // preferred slot, fully verified
  kFallback = 2,  // other slot after the preferred one failed verification
  kRecovery = 3,  // ROM-resident limp-home image
};
const char* boot_mode_name(BootMode m);

/// One measurement: what was measured at a stage and whether it verified.
struct Measurement {
  BootStage stage = BootStage::kRom;
  bool passed = false;
  crypto::Digest digest{};  // of the measured object
  friend bool operator==(const Measurement&, const Measurement&) = default;
};

/// PCR-style register: extend() chains SHA-256 over (pcr | stage | verdict |
/// digest), so the final value commits to the whole ordered log.
class MeasurementRegister {
 public:
  MeasurementRegister() { reset(); }
  void reset();
  void extend(const Measurement& m);
  const crypto::Digest& pcr() const { return pcr_; }
  const std::vector<Measurement>& log() const { return log_; }
  bool all_passed() const;
  /// Recomputes the PCR a given log would produce (evidence verification).
  static crypto::Digest replay(const std::vector<Measurement>& log);

 private:
  crypto::Digest pcr_{};
  std::vector<Measurement> log_;
};

/// Signed boot attestation. Strict wire format (versioned, length-prefixed,
/// no trailing bytes); `serialize`/`parse` round-trip byte-identically.
struct AttestationEvidence {
  static constexpr std::uint8_t kVersion = 1;

  util::Bytes uid;       // 15-byte SHE device id
  std::uint32_t boot_count = 0;
  std::uint8_t mode = 0;  // BootMode
  bool measured_ok = false;
  util::Bytes nonce;     // verifier challenge (freshness)
  std::vector<Measurement> measurements;
  crypto::Digest pcr{};
  crypto::EcdsaSignature signature{};

  /// To-be-signed serialization (everything except the signature).
  util::Bytes tbs() const;
  /// tbs || 64-byte r||s signature.
  util::Bytes serialize() const;
  /// Strict parse: bad magic/version/lengths/enums or trailing bytes fail.
  static std::optional<AttestationEvidence> parse(util::BytesView blob);
};

/// Full evidence check: expected nonce, PCR replay, ECDSA signature (through
/// the VerifyEngine's cache when provided).
bool verify_evidence(const AttestationEvidence& ev,
                     const crypto::EcdsaPublicKey& pub,
                     util::BytesView expected_nonce,
                     crypto::VerifyEngine* engine = nullptr);

struct BootChainConfig {
  /// Second-stage bootloader image (measured by ROM, MACed by SHE).
  util::Bytes bootloader;
  /// ROM-fused digest the bootloader must match (the root of trust).
  crypto::Digest rom_anchor{};
  /// ROM-resident limp-home image booted when no slot verifies.
  std::optional<FirmwareImage> recovery_image;
};

/// KvStore keys the chain (and fleet campaigns) use.
inline constexpr const char* kKvAppAnchorKey = "boot.anchor";
/// Per-image signature key: kKvSigPrefix + hex(FirmwareImage::digest()).
inline constexpr const char* kKvSigPrefix = "boot.sig.";
std::string boot_sig_key(const crypto::Digest& image_digest);

class BootChain {
 public:
  struct StageRecord {
    BootStage stage = BootStage::kRom;
    int attempts = 0;
    bool passed = false;
  };
  struct Report {
    BootMode mode = BootMode::kNone;
    bool measured_ok = false;
    bool keys_unlocked = false;  // CryptoService reached kOperational
    bool hung = false;
    BootStage hung_stage = BootStage::kRom;
    bool fallback_used = false;  // reverted to the other slot
    bool recovery_used = false;
    std::uint32_t boot_count = 0;
    std::vector<StageRecord> stages;
    Flash::BootReport flash;
    KvStore::MountReport kv;
    double boot_us = 0.0;  // modeled end-to-end boot latency
  };

  /// The service is relocked and re-gated on every run(); `provisioning` may
  /// be null (then only the config anchor is available).
  BootChain(She& she, Flash& flash, crypto::CryptoService& service,
            KvStore* provisioning, BootChainConfig cfg,
            const sim::Telemetry& telemetry = {});

  /// Attestation signing key (non-boot-protected, so failed boots can still
  /// be attested — that is the point of attestation).
  void set_attestation_key(crypto::PartitionId partition, crypto::KeyHandle h);

  /// Test/fault hook: return true to hang the given (stage, attempt) — the
  /// chain stops mid-stage with hung() set and NO measurement verdict, which
  /// is what safety::BootGuard escalates on.
  using StageHook = std::function<bool(BootStage, int attempt)>;
  void set_stage_hook(StageHook hook) { hook_ = std::move(hook); }

  /// Runs the full chain (power-on or supervisor-triggered reset).
  Report run(util::SimTime now = util::SimTime::zero());

  bool hung() const { return hung_; }
  const Report& last() const { return last_; }

  /// Signed evidence for the last run; nullopt before the first run or when
  /// the service denies the signature (no attestation key provisioned).
  std::optional<AttestationEvidence> attest(util::BytesView nonce) const;

  /// ROM measurement latency model (flash streaming + hash).
  static double measure_latency_us(std::size_t bytes) {
    return 2.0 + 0.01 * static_cast<double>(bytes);
  }

 private:
  bool stage_attempts(BootStage stage, int* attempts,
                      const std::function<bool()>& attempt);
  const util::Bytes* kv_value(const std::string& key) const;

  She& she_;
  Flash& flash_;
  crypto::CryptoService& service_;
  KvStore* kv_ = nullptr;
  BootChainConfig cfg_;
  crypto::PartitionId attest_partition_ = 0;
  crypto::KeyHandle attest_key_{};
  StageHook hook_;
  MeasurementRegister mr_;
  Report last_;
  bool hung_ = false;
  std::uint32_t boot_count_ = 0;
  mutable sim::TraceScope trace_;
  crypto::VerifyEngine engine_;
  const sim::TraceId k_stage_ = trace_.kind("stage");
  const sim::TraceId k_fallback_ = trace_.kind("fallback");
  const sim::TraceId k_recovery_ = trace_.kind("recovery");
  const sim::TraceId k_measured_ = trace_.kind("measured");
  const sim::TraceId k_attest_ = trace_.kind("attest");
  const sim::TraceId k_hang_ = trace_.kind("hang");
};

}  // namespace aseck::ecu
