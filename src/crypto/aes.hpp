#pragma once
// AES-128/192/256 block cipher (FIPS 197), byte-oriented software
// implementation. The S-box is derived from the GF(2^8) inversion + affine
// map at static-init time rather than transcribed, and the whole cipher is
// validated against FIPS/NIST known-answer vectors in tests.
//
// The side-channel module reuses `sbox()` and `AesKeySchedule` to model a
// leaky first round; see src/sidechannel/power_model.hpp.

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace aseck::crypto {

inline constexpr std::size_t kAesBlockSize = 16;

using Block = std::array<std::uint8_t, kAesBlockSize>;

/// Forward S-box lookup.
std::uint8_t aes_sbox(std::uint8_t x);
/// Inverse S-box lookup.
std::uint8_t aes_inv_sbox(std::uint8_t x);
/// GF(2^8) multiply with the AES polynomial x^8+x^4+x^3+x+1.
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

/// Expanded key schedule for a fixed key.
class Aes {
 public:
  /// Key must be 16, 24 or 32 bytes.
  explicit Aes(util::BytesView key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  Block encrypt(const Block& in) const;
  Block decrypt(const Block& in) const;

  /// Round keys as 16-byte blocks, index 0..rounds(). Exposed for the
  /// side-channel power model and masking countermeasure.
  const std::uint8_t* round_key(int round) const { return &rk_[round * 16]; }

 private:
  int rounds_ = 0;
  std::array<std::uint8_t, 16 * 15> rk_{};   // up to AES-256: 14 rounds + 1
  std::array<std::uint8_t, 16 * 15> drk_{};  // decryption keys (equivalent inverse)
};

// --- Block modes -----------------------------------------------------------

/// CTR keystream encryption/decryption (symmetric). `iv` is the initial
/// 16-byte counter block; the low 32 bits increment big-endian.
util::Bytes aes_ctr(const Aes& aes, const Block& iv, util::BytesView data);

/// CBC with PKCS#7 padding.
util::Bytes aes_cbc_encrypt(const Aes& aes, const Block& iv, util::BytesView plain);
/// Throws std::invalid_argument on bad padding or non-block-multiple input.
util::Bytes aes_cbc_decrypt(const Aes& aes, const Block& iv, util::BytesView cipher);

}  // namespace aseck::crypto
