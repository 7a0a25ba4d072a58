#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace aseck::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
}  // namespace

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

namespace detail {

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* p,
                            std::size_t blocks) {
  using util::rotr32;
  for (; blocks > 0; --blocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = util::load_be32(p + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

bool sha256_shani_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha");
}

// The x86 SHA extensions keep the working variables as two vectors, ABEF
// and CDGH. Each SHA256RNDS2 runs two rounds on the low two words of its
// message-plus-constant operand; SHA256MSG1/MSG2 extend the schedule four
// words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    Sha256State& state, const std::uint8_t* p, std::size_t blocks) {
  // Byte swap within each 32-bit word: the message words are big-endian.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[r % 4] holds schedule words 4r..4r+3 while round group r runs.
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)), kBswap);
    }
#pragma GCC unroll 16
    for (int r = 0; r < 16; ++r) {
      const __m128i wk = _mm_add_epi32(
          msg[r % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * r])));
      // Two rounds leave the new ABEF in cdgh's register and make the old
      // ABEF the new CDGH; the next two rounds swap them back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (r < 12) {
        // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]) for t = 4r+16..
        const __m128i w7 =
            _mm_alignr_epi8(msg[(r + 3) % 4], msg[(r + 2) % 4], 4);
        msg[r % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(msg[r % 4], msg[(r + 1) % 4]), w7),
            msg[(r + 3) % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool sha256_shani_available() { return false; }

// Never chosen off x86; kept so the tests link on every host.
void sha256_blocks_shani(Sha256State& state, const std::uint8_t* p,
                         std::size_t blocks) {
  sha256_blocks_portable(state, p, blocks);
}

#endif

}  // namespace detail

namespace {

using BlocksFn = void (*)(detail::Sha256State&, const std::uint8_t*, std::size_t);

/// The kernel for this process, picked on first use.
BlocksFn blocks_kernel() {
  static const BlocksFn kernel = detail::sha256_shani_available()
                                     ? detail::sha256_blocks_shani
                                     : detail::sha256_blocks_portable;
  return kernel;
}

}  // namespace

void Sha256::update(util::BytesView data) {
  const BlocksFn blocks = blocks_kernel();
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      blocks(h_, buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  if (const std::size_t whole = (data.size() - off) / 64) {
    blocks(h_, data.data() + off, whole);
    off += 64 * whole;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72] = {0x80};
  // Pad to 56 mod 64, then 8 bytes of big-endian bit length.
  const std::size_t pad_len =
      (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  update(util::BytesView(pad, pad_len));
  std::uint8_t len_bytes[8];
  util::store_be64(len_bytes, bit_len);
  // total_len_ was mutated by the pad update; use the saved bit_len.
  update(util::BytesView(len_bytes, 8));
  Digest out;
  for (int i = 0; i < 8; ++i) util::store_be32(&out[4 * static_cast<std::size_t>(i)], h_[static_cast<std::size_t>(i)]);
  return out;
}

Digest sha256(util::BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

util::Bytes sha256_bytes(util::BytesView data) {
  const Digest d = sha256(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace aseck::crypto
