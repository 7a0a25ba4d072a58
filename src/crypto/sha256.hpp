#pragma once
// SHA-256 (FIPS 180-4), incremental API plus one-shot helper. Used for OTA
// image digests, Uptane metadata hashing, certificate digests, and HMAC.
//
// Two compression kernels sit behind Sha256: the portable one, and on x86
// hosts whose CPU reports the SHA extensions, a SHA-NI one. The choice is
// made once per process; both give the same bytes, and the portable kernel
// is the oracle the SHA-NI one is tested against.

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace aseck::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(util::BytesView data);
  /// Finalizes and returns the digest; the object must be reset() before
  /// further use.
  Digest finalize();

 private:
  std::array<std::uint32_t, 8> h_{};
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compresses `blocks` whole 64-byte blocks at `p` into `state`, one block
/// at a time in portable C++. Sha256 uses it where SHA-NI is missing.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* p,
                            std::size_t blocks);

/// True when this process runs on x86 with the SHA extensions, so
/// sha256_blocks_shani may be called.
bool sha256_shani_available();

/// The same compression on the SHA-NI instructions. Call it only when
/// sha256_shani_available() is true.
void sha256_blocks_shani(Sha256State& state, const std::uint8_t* p,
                         std::size_t blocks);

}  // namespace detail

/// One-shot digest.
Digest sha256(util::BytesView data);
/// Digest as Bytes (convenience for serialization).
util::Bytes sha256_bytes(util::BytesView data);

}  // namespace aseck::crypto
