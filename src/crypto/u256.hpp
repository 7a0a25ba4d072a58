#pragma once
// Fixed-width 256-bit unsigned integers (8 x 32-bit limbs, little-endian
// limb order) plus the 512-bit product type. This is the arithmetic base for
// the P-256 implementation; it favors clarity and testability over speed.

#include <array>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace aseck::crypto {

struct U512;

struct U256 {
  std::array<std::uint32_t, 8> w{};  // w[0] least significant

  static U256 zero() { return U256{}; }
  static U256 one() {
    U256 r;
    r.w[0] = 1;
    return r;
  }
  static U256 from_u64(std::uint64_t v) {
    U256 r;
    r.w[0] = static_cast<std::uint32_t>(v);
    r.w[1] = static_cast<std::uint32_t>(v >> 32);
    return r;
  }
  /// Parses a big-endian hex string of <= 64 digits.
  static U256 from_hex(std::string_view hex);
  /// Big-endian 32-byte decoding; shorter inputs are left-padded with zero.
  static U256 from_bytes(util::BytesView be);

  util::Bytes to_bytes() const;  // 32 bytes big-endian
  std::string to_hex() const;

  bool is_zero() const;
  bool bit(unsigned i) const { return (w[i / 32] >> (i % 32)) & 1u; }
  /// Index of the highest set bit, or -1 if zero.
  int top_bit() const;
  bool is_odd() const { return w[0] & 1u; }

  friend bool operator==(const U256&, const U256&) = default;
};

/// -1 / 0 / +1 three-way compare.
int cmp(const U256& a, const U256& b);
bool operator<(const U256& a, const U256& b);

/// a + b; returns the carry-out (0/1).
std::uint32_t add(U256& out, const U256& a, const U256& b);
/// a - b; returns the borrow-out (0/1).
std::uint32_t sub(U256& out, const U256& a, const U256& b);
/// Logical shift left/right by 1 bit; shl returns the bit shifted out.
std::uint32_t shl1(U256& v);
void shr1(U256& v);

struct U512 {
  std::array<std::uint32_t, 16> w{};
};

/// Full 256x256 -> 512-bit product.
U512 mul(const U256& a, const U256& b);

/// Generic x mod m via binary long division. m must be nonzero; no special
/// form assumed. Used for the P-256 group order n.
U256 mod_generic(const U512& x, const U256& m);
U256 mod_generic(const U256& x, const U256& m);

/// (a + b) mod m, inputs already reduced.
U256 add_mod(const U256& a, const U256& b, const U256& m);
/// (a - b) mod m, inputs already reduced.
U256 sub_mod(const U256& a, const U256& b, const U256& m);
/// (a * b) mod m via mod_generic (slow path; P-256 field uses fast reduce).
U256 mul_mod(const U256& a, const U256& b, const U256& m);
/// a^e mod m by square-and-multiply.
U256 pow_mod(const U256& a, const U256& e, const U256& m);
/// Modular inverse for odd prime modulus m by binary extended GCD.
/// Precondition: a != 0 mod m.
U256 inv_mod_prime(const U256& a, const U256& m);

}  // namespace aseck::crypto
