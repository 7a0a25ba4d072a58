#pragma once
// Byte-buffer utilities shared by every subsystem.
//
// `Bytes` is the canonical octet-string type for frames, keys, digests and
// serialized metadata throughout the library.

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aseck::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Lowercase hex encoding, e.g. {0xde,0xad} -> "dead".
std::string to_hex(BytesView data);

/// Parses hex (case-insensitive, no separators). Throws std::invalid_argument
/// on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Bytes of an ASCII string (no terminator).
Bytes from_string(std::string_view s);

/// Concatenates any number of buffers.
Bytes concat(std::initializer_list<BytesView> parts);

/// XORs `b` into `a` elementwise; buffers must have equal length.
void xor_inplace(Bytes& a, BytesView b);

/// Constant-time equality (length leak only). Returns false on length
/// mismatch without early exit on content.
bool ct_equal(BytesView a, BytesView b);

// Big-endian fixed-width loads/stores (network / crypto order).
std::uint32_t load_be32(const std::uint8_t* p);
std::uint64_t load_be64(const std::uint8_t* p);
void store_be32(std::uint8_t* p, std::uint32_t v);
void store_be64(std::uint8_t* p, std::uint64_t v);

// Little-endian variants (CAN payload conventions).
std::uint32_t load_le32(const std::uint8_t* p);
std::uint64_t load_le64(const std::uint8_t* p);
void store_le32(std::uint8_t* p, std::uint32_t v);
void store_le64(std::uint8_t* p, std::uint64_t v);

/// Appends a big-endian integer of `width` bytes (1..8) to `out`.
void append_be(Bytes& out, std::uint64_t v, std::size_t width);

/// Word rotations (crypto kernels).
constexpr std::uint32_t rotr32(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32u - n));
}
constexpr std::uint64_t rotl64(std::uint64_t x, unsigned n) {
  return (x << n) | (x >> (64u - n));
}

/// Population count helpers used by the side-channel leakage models.
constexpr int hamming_weight(std::uint64_t v) { return __builtin_popcountll(v); }
constexpr int hamming_distance(std::uint64_t a, std::uint64_t b) {
  return hamming_weight(a ^ b);
}

}  // namespace aseck::util
