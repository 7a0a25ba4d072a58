#include "ecu/she.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/kdf.hpp"

namespace aseck::ecu {

namespace {

using crypto::she_kdf;

std::uint8_t pack_flags(const SheKeyFlags& f) {
  return static_cast<std::uint8_t>(
      (f.write_protection << 4) | (f.boot_protection << 3) |
      (f.debugger_protection << 2) | (f.key_usage_mac << 1) |
      (f.wildcard_forbidden << 0));
}

SheKeyFlags unpack_flags(std::uint8_t v) {
  SheKeyFlags f;
  f.write_protection = (v >> 4) & 1;
  f.boot_protection = (v >> 3) & 1;
  f.debugger_protection = (v >> 2) & 1;
  f.key_usage_mac = (v >> 1) & 1;
  f.wildcard_forbidden = (v >> 0) & 1;
  return f;
}

bool auth_allowed(SheSlot target, SheSlot auth) {
  if (target == SheSlot::kSecretKey) return false;  // never updatable
  if (target == SheSlot::kRamKey) return auth == SheSlot::kSecretKey;
  return auth == SheSlot::kMasterEcuKey || auth == target;
}

}  // namespace

She::She(util::Bytes uid, std::uint64_t prng_seed)
    : uid_(std::move(uid)), prng_(prng_seed) {
  if (uid_.size() != 15) {
    throw std::invalid_argument("She: UID must be 120 bits (15 bytes)");
  }
}

SheError She::provision_key(SheSlot slot, const Block& key, SheKeyFlags flags) {
  KeySlotState& st = slot_ref(slot);
  if (st.present && st.flags.write_protection) return SheError::kKeyWriteProtected;
  st.key = key;
  st.flags = flags;
  st.counter = 0;
  st.present = true;
  return SheError::kNoError;
}

She::UpdateMessages She::build_update(const util::Bytes& uid, SheSlot target,
                                      SheSlot auth, const Block& auth_key,
                                      const Block& new_key,
                                      std::uint32_t new_counter,
                                      SheKeyFlags flags) {
  if (uid.size() != 15) throw std::invalid_argument("build_update: bad UID");
  if (!auth_allowed(target, auth)) {
    throw std::invalid_argument("build_update: illegal auth slot for target");
  }
  const Block k1 = she_kdf(auth_key, crypto::she_key_update_enc_c());
  const Block k2 = she_kdf(auth_key, crypto::she_key_update_mac_c());

  UpdateMessages out;
  // M1 = UID | ID(4) | AuthID(4)
  out.m1 = uid;
  out.m1.push_back(static_cast<std::uint8_t>(
      (static_cast<unsigned>(target) << 4) | static_cast<unsigned>(auth)));

  // M2 plaintext block 1: counter(28) | flags(5) | zeros(95); block 2: key.
  util::Bytes m2_plain(32, 0);
  const std::uint64_t hi = (static_cast<std::uint64_t>(new_counter & 0x0fffffff)
                            << 36) |
                           (static_cast<std::uint64_t>(pack_flags(flags)) << 31);
  util::store_be64(m2_plain.data(), hi);
  std::memcpy(m2_plain.data() + 16, new_key.data(), 16);
  // ENC_CBC with IV = 0, no padding (exact two blocks).
  const crypto::Aes aes_k1(util::BytesView(k1.data(), k1.size()));
  Block iv{};
  Block prev = iv;
  out.m2.resize(32);
  for (int b = 0; b < 2; ++b) {
    Block x;
    for (int i = 0; i < 16; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          m2_plain[static_cast<std::size_t>(16 * b + i)] ^
          prev[static_cast<std::size_t>(i)]);
    }
    const Block c = aes_k1.encrypt(x);
    std::memcpy(out.m2.data() + 16 * b, c.data(), 16);
    prev = c;
  }

  // M3 = CMAC(K2, M1 | M2)
  const Block m3 = crypto::aes_cmac(util::BytesView(k2.data(), k2.size()),
                                    util::concat({out.m1, out.m2}));
  out.m3.assign(m3.begin(), m3.end());
  return out;
}

std::optional<SheUpdateProof> She::load_key(const UpdateMessages& msgs,
                                            SheError* err) {
  auto fail = [&](SheError e) {
    if (err) *err = e;
    return std::nullopt;
  };
  if (msgs.m1.size() != 16 || msgs.m2.size() != 32 || msgs.m3.size() != 16) {
    return fail(SheError::kSequenceError);
  }
  // Parse M1.
  const util::Bytes m1_uid(msgs.m1.begin(), msgs.m1.begin() + 15);
  const auto target = static_cast<SheSlot>(msgs.m1[15] >> 4);
  const auto auth = static_cast<SheSlot>(msgs.m1[15] & 0x0f);
  if (static_cast<unsigned>(target) > 14 || static_cast<unsigned>(auth) > 14) {
    return fail(SheError::kSequenceError);
  }
  if (!auth_allowed(target, auth)) return fail(SheError::kKeyInvalid);

  KeySlotState& tgt = slot_ref(target);
  if (tgt.present && tgt.flags.write_protection) {
    return fail(SheError::kKeyWriteProtected);
  }
  const bool wildcard = std::all_of(m1_uid.begin(), m1_uid.end(),
                                    [](std::uint8_t b) { return b == 0; });
  if (wildcard && tgt.present && tgt.flags.wildcard_forbidden) {
    return fail(SheError::kKeyUpdateError);
  }
  if (!wildcard && m1_uid != uid_) return fail(SheError::kKeyUpdateError);

  const KeySlotState& auth_st = slot_ref(auth);
  if (!auth_st.present) return fail(SheError::kKeyEmpty);

  // Verify M3 with K2 derived from the *device's* auth key.
  const Block k2 = she_kdf(auth_st.key, crypto::she_key_update_mac_c());
  const crypto::Cmac cmac_k2(util::BytesView(k2.data(), k2.size()));
  if (!cmac_k2.verify(util::concat({msgs.m1, msgs.m2}), msgs.m3)) {
    return fail(SheError::kKeyUpdateError);
  }

  // Decrypt M2.
  const Block k1 = she_kdf(auth_st.key, crypto::she_key_update_enc_c());
  const crypto::Aes aes_k1(util::BytesView(k1.data(), k1.size()));
  util::Bytes plain(32);
  Block prev{};  // IV = 0
  for (int b = 0; b < 2; ++b) {
    Block c;
    std::memcpy(c.data(), msgs.m2.data() + 16 * b, 16);
    const Block x = aes_k1.decrypt(c);
    for (int i = 0; i < 16; ++i) {
      plain[static_cast<std::size_t>(16 * b + i)] =
          static_cast<std::uint8_t>(x[static_cast<std::size_t>(i)] ^
                                    prev[static_cast<std::size_t>(i)]);
    }
    prev = c;
  }
  const std::uint64_t hi = util::load_be64(plain.data());
  const auto new_counter = static_cast<std::uint32_t>(hi >> 36);
  const SheKeyFlags new_flags =
      unpack_flags(static_cast<std::uint8_t>((hi >> 31) & 0x1f));
  Block new_key;
  std::memcpy(new_key.data(), plain.data() + 16, 16);

  // Rollback protection: counter must strictly increase (RAM key exempt).
  if (target != SheSlot::kRamKey && tgt.present && new_counter <= tgt.counter) {
    return fail(SheError::kKeyUpdateError);
  }

  tgt.key = new_key;
  tgt.flags = new_flags;
  tgt.counter = new_counter;
  tgt.present = true;

  // Build verification messages M4/M5 keyed by the *new* key.
  const Block k3 = she_kdf(new_key, crypto::she_key_update_enc_c());
  const Block k4 = she_kdf(new_key, crypto::she_key_update_mac_c());
  SheUpdateProof proof;
  proof.m4 = msgs.m1;  // UID | ID | AuthID
  Block m4_star_plain{};
  // counter(28) | "1" | zeros
  const std::uint64_t m4hi =
      (static_cast<std::uint64_t>(new_counter & 0x0fffffff) << 36) |
      (std::uint64_t{1} << 35);
  util::store_be64(m4_star_plain.data(), m4hi);
  const Block m4_star =
      crypto::Aes(util::BytesView(k3.data(), k3.size())).encrypt(m4_star_plain);
  proof.m4.insert(proof.m4.end(), m4_star.begin(), m4_star.end());
  const Block m5 = crypto::aes_cmac(util::BytesView(k4.data(), k4.size()), proof.m4);
  proof.m5.assign(m5.begin(), m5.end());
  if (err) *err = SheError::kNoError;
  return proof;
}

SheError She::load_plain_key(const Block& key) {
  KeySlotState& st = slot_ref(SheSlot::kRamKey);
  st.key = key;
  st.flags = SheKeyFlags{};  // plain-loaded RAM key has no protections
  st.present = true;
  return SheError::kNoError;
}

SheError She::usable(SheSlot slot, bool for_mac) const {
  const KeySlotState& st = slot_ref(slot);
  if (!st.present) return SheError::kKeyEmpty;
  if (st.flags.boot_protection && !boot_ok_) return SheError::kKeyNotAvailable;
  if (st.flags.debugger_protection && debugger_) return SheError::kKeyNotAvailable;
  // RAM key is usable for both; flagged slots enforce usage.
  if (slot != SheSlot::kRamKey && st.flags.key_usage_mac != for_mac) {
    return SheError::kKeyInvalid;
  }
  return SheError::kNoError;
}

SheError She::enc_ecb(SheSlot slot, const Block& plain, Block* cipher) const {
  const SheError e = usable(slot, /*for_mac=*/false);
  if (e != SheError::kNoError) return e;
  const KeySlotState& st = slot_ref(slot);
  *cipher = crypto::Aes(util::BytesView(st.key.data(), 16)).encrypt(plain);
  return SheError::kNoError;
}

SheError She::dec_ecb(SheSlot slot, const Block& cipher, Block* plain) const {
  const SheError e = usable(slot, /*for_mac=*/false);
  if (e != SheError::kNoError) return e;
  const KeySlotState& st = slot_ref(slot);
  *plain = crypto::Aes(util::BytesView(st.key.data(), 16)).decrypt(cipher);
  return SheError::kNoError;
}

SheError She::generate_mac(SheSlot slot, util::BytesView msg, Block* mac) const {
  const SheError e = usable(slot, /*for_mac=*/true);
  if (e != SheError::kNoError) return e;
  const KeySlotState& st = slot_ref(slot);
  *mac = crypto::aes_cmac(util::BytesView(st.key.data(), 16), msg);
  return SheError::kNoError;
}

SheError She::verify_mac(SheSlot slot, util::BytesView msg, util::BytesView mac,
                         bool* ok) const {
  const SheError e = usable(slot, /*for_mac=*/true);
  if (e != SheError::kNoError) return e;
  const KeySlotState& st = slot_ref(slot);
  *ok = crypto::Cmac(util::BytesView(st.key.data(), 16)).verify(msg, mac);
  return SheError::kNoError;
}

Block She::rnd() {
  Block out;
  prng_.generate(out.data(), out.size());
  return out;
}

bool She::secure_boot(util::BytesView bootloader) {
  // Reject a zero-length image outright: a blank boot flash must read as a
  // loud failure, not as a CMAC over the empty string that might even match
  // a carelessly-bootstrapped BOOT_MAC.
  if (bootloader.empty()) {
    boot_ok_ = false;
    last_boot_error_ = SheError::kSequenceError;
    return false;
  }
  const KeySlotState& key_st = slot_ref(SheSlot::kBootMacKey);
  const KeySlotState& mac_st = slot_ref(SheSlot::kBootMac);
  if (!key_st.present || !mac_st.present) {
    boot_ok_ = false;
    last_boot_error_ = SheError::kKeyEmpty;
    return false;
  }
  const Block mac =
      crypto::aes_cmac(util::BytesView(key_st.key.data(), 16), bootloader);
  boot_ok_ = util::ct_equal(util::BytesView(mac.data(), 16),
                            util::BytesView(mac_st.key.data(), 16));
  last_boot_error_ = boot_ok_ ? SheError::kNoError : SheError::kKeyUpdateError;
  return boot_ok_;
}

SheError She::autonomous_bootstrap(util::BytesView bootloader) {
  if (bootloader.empty()) return SheError::kSequenceError;
  const KeySlotState& key_st = slot_ref(SheSlot::kBootMacKey);
  if (!key_st.present) return SheError::kKeyEmpty;
  KeySlotState& mac_st = slot_ref(SheSlot::kBootMac);
  if (mac_st.present && mac_st.flags.write_protection) {
    return SheError::kKeyWriteProtected;
  }
  mac_st.key = crypto::aes_cmac(util::BytesView(key_st.key.data(), 16), bootloader);
  mac_st.present = true;
  return SheError::kNoError;
}

void She::attach_debugger() {
  debugger_ = true;
  for (auto& st : slots_) {
    if (st.present && st.flags.debugger_protection) {
      st = KeySlotState{};  // key erased on debug entry
    }
  }
}

bool She::has_key(SheSlot slot) const { return slot_ref(slot).present; }
std::uint32_t She::counter(SheSlot slot) const { return slot_ref(slot).counter; }
SheKeyFlags She::flags(SheSlot slot) const { return slot_ref(slot).flags; }

double She::cmd_latency_us(std::size_t data_bytes) {
  // Command setup ~8us + ~1.2us per 16-byte block (SHE-class AES engine).
  return 8.0 + 1.2 * static_cast<double>((data_bytes + 15) / 16);
}

}  // namespace aseck::ecu
