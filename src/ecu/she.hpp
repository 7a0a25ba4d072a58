#pragma once
// Secure Hardware Extension (SHE) module model, following the SHE functional
// specification: fixed key slots with usage/protection flags, the M1/M2/M3
// memory-update protocol (with M4/M5 verification messages), secure boot via
// BOOT_MAC, a RAM key, and a PRNG. This is the "Secure Processing" layer
// primitive of the paper's 4+1 architecture.
//
// The model is functional (no cycle-accurate datapath); command latencies are
// exposed so ECU-level simulations can account for crypto time.

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/aes.hpp"
#include "crypto/cmac.hpp"
#include "crypto/drbg.hpp"
#include "util/bytes.hpp"

namespace aseck::ecu {

using crypto::Block;

/// SHE key slot identifiers.
enum class SheSlot : std::uint8_t {
  kSecretKey = 0x0,     // device-unique, never updatable in field
  kMasterEcuKey = 0x1,  // authorizes updates of other slots
  kBootMacKey = 0x2,
  kBootMac = 0x3,
  kKey1 = 0x4,
  kKey2 = 0x5,
  kKey3 = 0x6,
  kKey4 = 0x7,
  kKey5 = 0x8,
  kKey6 = 0x9,
  kKey7 = 0xA,
  kKey8 = 0xB,
  kKey9 = 0xC,
  kKey10 = 0xD,
  kRamKey = 0xE,
};

/// Per-key protection flags (SHE FID bits).
struct SheKeyFlags {
  bool write_protection = false;   // slot becomes immutable
  bool boot_protection = false;    // unusable until secure boot passes
  bool debugger_protection = false;  // unusable when debugger attached
  bool key_usage_mac = false;      // true: CMAC only; false: encryption only
  bool wildcard_forbidden = false; // UID wildcard updates rejected
};

/// SHE error codes (subset).
enum class SheError {
  kNoError,
  kSequenceError,
  kKeyNotAvailable,   // empty slot or boot/debug protected
  kKeyInvalid,        // usage violation
  kKeyEmpty,
  kKeyUpdateError,    // M3 verification failed
  kKeyWriteProtected,
  kMemoryFailure,
  kRngSeedError,
};

/// Result of the memory-update protocol: verification messages M4/M5.
struct SheUpdateProof {
  util::Bytes m4;  // 32 bytes
  util::Bytes m5;  // 16 bytes
};

class She {
 public:
  /// `uid` is the 120-bit device unique id (15 bytes).
  She(util::Bytes uid, std::uint64_t prng_seed);

  const util::Bytes& uid() const { return uid_; }

  // --- provisioning (factory only; bypasses the update protocol) ----------
  /// Loads a key directly. Fails if the slot is write-protected.
  SheError provision_key(SheSlot slot, const Block& key, SheKeyFlags flags);

  // --- memory update protocol (SHE spec 9.1) ------------------------------
  /// Builds M1..M3 for updating `target` with `new_key`, authorized by the
  /// key in `auth` (typically MASTER_ECU_KEY or the slot itself). This is
  /// the *sender* side (e.g. OEM backend) and therefore a static helper
  /// taking the auth key value explicitly.
  struct UpdateMessages {
    util::Bytes m1, m2, m3;  // 16, 32, 16 bytes
  };
  static UpdateMessages build_update(const util::Bytes& uid, SheSlot target,
                                     SheSlot auth, const Block& auth_key,
                                     const Block& new_key,
                                     std::uint32_t new_counter,
                                     SheKeyFlags flags);

  /// Device-side CMD_LOAD_KEY: verifies and applies M1..M3; on success
  /// returns M4/M5 proof. Enforces counter monotonicity and write protection.
  std::optional<SheUpdateProof> load_key(const UpdateMessages& msgs,
                                         SheError* err = nullptr);

  /// CMD_LOAD_PLAIN_KEY: loads the RAM key in plaintext (no protection).
  SheError load_plain_key(const Block& key);

  // --- crypto commands -----------------------------------------------------
  SheError enc_ecb(SheSlot slot, const Block& plain, Block* cipher) const;
  SheError dec_ecb(SheSlot slot, const Block& cipher, Block* plain) const;
  SheError generate_mac(SheSlot slot, util::BytesView msg, Block* mac) const;
  SheError verify_mac(SheSlot slot, util::BytesView msg, util::BytesView mac,
                      bool* ok) const;

  /// CMD_RND: PRNG output (model of the TRNG-seeded PRNG).
  Block rnd();

  // --- secure boot ----------------------------------------------------------
  /// CMD_BOOT_MAC: verifies `bootloader` against the stored BOOT_MAC using
  /// BOOT_MAC_KEY. Sets the boot-ok status; boot-protected keys unlock only
  /// if verification succeeds. A zero-length bootloader is rejected loudly
  /// (kSequenceError in last_boot_error()): CMACing an empty image would
  /// happily "verify" a device whose boot flash read back blank.
  bool secure_boot(util::BytesView bootloader);
  bool boot_ok() const { return boot_ok_; }
  /// Why the last secure_boot failed (kNoError after a passing one):
  /// kSequenceError = empty bootloader, kKeyEmpty = missing boot keys,
  /// kKeyUpdateError = MAC mismatch.
  SheError last_boot_error() const { return last_boot_error_; }
  /// Computes and stores BOOT_MAC for `bootloader` (provisioning; requires
  /// BOOT_MAC slot writable). Rejects an empty bootloader (kSequenceError) —
  /// provisioning a MAC over nothing would wedge every later secure_boot.
  SheError autonomous_bootstrap(util::BytesView bootloader);

  // --- debugger / tamper -----------------------------------------------------
  /// CMD_DEBUG: attaching a debugger wipes all keys whose
  /// debugger_protection flag is set (SHE semantics: internal debugger entry
  /// requires key erasure).
  void attach_debugger();

  /// True if the slot currently holds a key.
  bool has_key(SheSlot slot) const;
  std::uint32_t counter(SheSlot slot) const;
  SheKeyFlags flags(SheSlot slot) const;

  /// Command latency model (microseconds) used by ECU simulations.
  static double cmd_latency_us(std::size_t data_bytes);

 private:
  struct KeySlotState {
    Block key{};
    SheKeyFlags flags;
    std::uint32_t counter = 0;  // 28-bit in spec
    bool present = false;
  };

  KeySlotState& slot_ref(SheSlot s) { return slots_[static_cast<std::size_t>(s)]; }
  const KeySlotState& slot_ref(SheSlot s) const {
    return slots_[static_cast<std::size_t>(s)];
  }
  /// Checks availability for use with the given usage (mac vs enc).
  SheError usable(SheSlot slot, bool for_mac) const;

  util::Bytes uid_;
  std::array<KeySlotState, 15> slots_{};
  crypto::Drbg prng_;
  bool boot_ok_ = false;
  SheError last_boot_error_ = SheError::kNoError;
  bool debugger_ = false;
};

}  // namespace aseck::ecu
