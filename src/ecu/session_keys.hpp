#pragma once
// In-vehicle session-key distribution (AUTOSAR key-manager pattern): a key
// master periodically generates a fleet-epoch session key and wraps it for
// each ECU under that ECU's provisioned SHE keys (encrypt under the
// enc-usage key, authenticate under the mac-usage key). ECUs install the
// unwrapped key into the SHE RAM-key slot and use it for SecOC traffic of
// that epoch. Epoch counters give replay protection; rotating the session
// key bounds the exposure of any single key compromise — an in-field
// extensibility mechanism (new epoch = new key, no reflash).

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "ecu/she.hpp"

namespace aseck::ecu {

/// Wire format of one wrapped session key.
struct SessionKeyWrap {
  std::string ecu_name;
  std::uint32_t epoch = 0;
  util::Bytes wrapped_key;  // AES-ECB(K_enc, SK), 16 bytes
  util::Bytes mac;          // CMAC(K_mac, ecu||epoch||wrapped), 16 bytes

  util::Bytes mac_input() const;
};

/// Backend/gateway-side key master. Knows each ECU's wrap keys (in a real
/// vehicle these live in the key master's own SHE; modeled as raw blocks).
class SessionKeyMaster {
 public:
  explicit SessionKeyMaster(std::uint64_t seed) : rng_(seed) {}

  void register_ecu(const std::string& name, const crypto::Block& enc_key,
                    const crypto::Block& mac_key);

  /// Starts a new epoch with a fresh session key; returns one wrap per ECU.
  std::vector<SessionKeyWrap> rotate();

  /// Current session key (for test verification; the master holds it anyway).
  const crypto::Block& current_key() const { return session_key_; }

 private:
  struct EcuKeys {
    crypto::Block enc, mac;
  };
  crypto::Drbg rng_;
  std::map<std::string, EcuKeys> ecus_;
  std::uint32_t epoch_ = 0;
  crypto::Block session_key_{};
};

/// ECU-side installer: verifies + unwraps into the SHE RAM key slot.
class SessionKeyClient {
 public:
  /// `enc_slot`/`mac_slot`: which SHE slots hold the wrap keys.
  SessionKeyClient(std::string name, She& she,
                   SheSlot enc_slot = SheSlot::kKey2,
                   SheSlot mac_slot = SheSlot::kKey3)
      : name_(std::move(name)), she_(she), enc_slot_(enc_slot),
        mac_slot_(mac_slot) {}

  enum class Result { kInstalled, kWrongEcu, kBadMac, kReplayedEpoch,
                      kSheError };
  Result install(const SessionKeyWrap& wrap);

  std::uint32_t epoch() const { return epoch_; }

 private:
  std::string name_;
  She& she_;
  SheSlot enc_slot_, mac_slot_;
  std::uint32_t epoch_ = 0;
};

}  // namespace aseck::ecu
