#pragma once
// SHE-specification key derivation: AES-128 Miyaguchi–Preneel compression
// over padded input, exactly as used by the SHE memory-update protocol
// (KDF(K, C) = MP-compress(K || C)).

#include "crypto/aes.hpp"
#include "util/bytes.hpp"

namespace aseck::crypto {

/// Miyaguchi–Preneel compression with AES-128-ECB:
///   H_{i+1} = E(H_i, M_i) XOR H_i XOR M_i,  H_0 = 0.
/// Input is padded per SHE (append 0x80... then 40-bit bit-length in the
/// final block) when `she_padding` is true, else must be block-aligned.
Block mp_compress(util::BytesView msg, bool she_padding = true);

/// SHE KDF: derives a 128-bit key from `key` and a domain-separation
/// constant `c` (16 bytes each), KDF(K, C) = MP(K || C).
Block she_kdf(const Block& key, const Block& c);

/// SHE update constants (SHE spec 1.1, section "Memory Update Protocol").
const Block& she_key_update_enc_c();   // KEY_UPDATE_ENC_C
const Block& she_key_update_mac_c();   // KEY_UPDATE_MAC_C

}  // namespace aseck::crypto
