// Known-answer tests for SHA-256 (and its two block kernels), HMAC, HKDF,
// ChaCha20 DRBG, and DST40.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/drbg.hpp"
#include "crypto/dst40.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace aseck::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::from_string;
using util::to_hex;

std::string hex(const Digest& d) {
  return to_hex(util::BytesView(d.data(), d.size()));
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex(sha256(from_string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(sha256(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(sha256(from_string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  util::Rng rng(1);
  const Bytes data = rng.bytes(301);
  Sha256 h;
  h.update(util::BytesView(data.data(), 100));
  h.update(util::BytesView(data.data() + 100, 1));
  h.update(util::BytesView(data.data() + 101, 200));
  EXPECT_EQ(hex(h.finalize()), hex(sha256(data)));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding around the 55/56/64 byte boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes data(len, 0x61);
    Sha256 h;
    h.update(data);
    EXPECT_EQ(hex(h.finalize()), hex(sha256(data))) << len;
  }
}

// The two compression kernels behind Sha256, called directly on whole
// messages: each must match the FIPS 180-4 vectors and the other, on every
// length 0-300, on random lengths up to 64 KiB, and at misaligned starts.

using BlocksFn = void (*)(detail::Sha256State&, const std::uint8_t*, std::size_t);

/// SHA-256 of `data` with every compression done by `blocks`: one call for
/// the whole blocks, read in place, and one for the padded tail.
Digest digest_with(BlocksFn blocks, util::BytesView data) {
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = data.size() / 64;
  blocks(state, data.data(), whole);
  std::uint8_t tail[128] = {};
  const std::size_t rest = data.size() - 64 * whole;
  if (rest > 0) std::memcpy(tail, data.data() + 64 * whole, rest);
  tail[rest] = 0x80;
  const std::size_t tail_len = rest < 56 ? 64 : 128;
  util::store_be64(tail + tail_len - 8, std::uint64_t{data.size()} * 8);
  blocks(state, tail, tail_len / 64);
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) util::store_be32(&out[4 * i], state[i]);
  return out;
}

void expect_fips_vectors(BlocksFn blocks) {
  EXPECT_EQ(hex(digest_with(blocks, Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(digest_with(blocks, from_string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(digest_with(blocks, from_string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex(digest_with(blocks, from_string(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(hex(digest_with(blocks, Bytes(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

/// Runs `check(data)` on every length 0-300 and on 100 random lengths up to
/// 64 KiB, each at start offsets 0-15 of one random buffer (the random
/// lengths at one random offset each).
template <typename Check>
void for_each_test_message(Check check) {
  util::Rng rng(22);
  const Bytes buf = rng.bytes(65536 + 16);
  const util::BytesView all(buf);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t off = 0; off < 16; ++off) check(all.subspan(off, len));
  }
  for (int i = 0; i < 100; ++i) {
    check(all.subspan(rng.uniform(16), rng.uniform(65536 + 1)));
  }
}

TEST(Sha256Kernels, PortableMatchesFips180Vectors) {
  expect_fips_vectors(detail::sha256_blocks_portable);
}

TEST(Sha256Kernels, ShaNiMatchesFips180Vectors) {
  if (!detail::sha256_shani_available()) {
    GTEST_SKIP() << "SHA-NI kernel not tested: this CPU lacks the SHA extensions";
  }
  expect_fips_vectors(detail::sha256_blocks_shani);
}

TEST(Sha256Kernels, ShaNiMatchesPortable) {
  if (!detail::sha256_shani_available()) {
    GTEST_SKIP() << "SHA-NI kernel not tested: this CPU lacks the SHA extensions";
  }
  for_each_test_message([](util::BytesView m) {
    ASSERT_EQ(hex(digest_with(detail::sha256_blocks_shani, m)),
              hex(digest_with(detail::sha256_blocks_portable, m)))
        << "length " << m.size();
  });
}

TEST(Sha256Kernels, StreamingMatchesPortable) {
  // Sha256 on whichever kernel this host picked, fed in random pieces, so
  // buffered blocks and runs of whole blocks both reach it.
  util::Rng rng(23);
  for_each_test_message([&](util::BytesView m) {
    Sha256 h;
    for (std::size_t at = 0; at < m.size();) {
      const std::size_t piece = std::min<std::size_t>(
          m.size() - at, 1 + rng.uniform(rng.uniform(2) ? 70 : 300));
      h.update(m.subspan(at, piece));
      at += piece;
    }
    ASSERT_EQ(hex(h.finalize()),
              hex(digest_with(detail::sha256_blocks_portable, m)))
        << "length " << m.size();
  });
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, from_string("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex(hmac_sha256(from_string("Jefe"),
                            from_string("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex(hmac_sha256(key, from_string(
                    "Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyTruncated) {
  const Bytes key = from_string("key");
  const Bytes msg = from_string("message");
  const Digest tag = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, util::BytesView(tag.data(), 16)));
  EXPECT_FALSE(hmac_verify(key, msg, util::BytesView(tag.data(), 4)));  // too short
  Bytes bad(tag.begin(), tag.begin() + 16);
  bad[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, bad));
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Digest prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLimits) {
  const Bytes prk(32, 1);
  EXPECT_EQ(hkdf_expand(prk, {}, 0).size(), 0u);
  EXPECT_EQ(hkdf_expand(prk, {}, 33).size(), 33u);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(ChaCha20, Rfc8439BlockVector) {
  std::array<std::uint32_t, 8> key{};
  const Bytes kb = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  for (int i = 0; i < 8; ++i) {
    key[static_cast<std::size_t>(i)] =
        util::load_le32(&kb[4 * static_cast<std::size_t>(i)]);
  }
  const std::array<std::uint32_t, 3> nonce{0x09000000, 0x4a000000, 0x00000000};
  std::uint8_t out[64];
  chacha20_block(key, 1, nonce, out);
  EXPECT_EQ(to_hex(util::BytesView(out, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(Drbg, DeterministicAndSeedSensitive) {
  Drbg a(from_string("seed")), b(from_string("seed")), c(from_string("other"));
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  EXPECT_NE(Drbg(from_string("seed")).bytes(64), c.bytes(64));
}

TEST(Drbg, IntSeedConstructor) {
  Drbg a(1234u), b(1234u), c(1235u);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(Drbg(1234u).next_u64(), c.next_u64());
}

TEST(Drbg, UniformBound) {
  Drbg d(99u);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(d.uniform(13), 13u);
  EXPECT_EQ(d.uniform(0), 0u);
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(7u), b(7u);
  (void)a.bytes(16);
  (void)b.bytes(16);
  a.reseed(from_string("fresh entropy"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, StreamSpansBlocks) {
  Drbg a(5u);
  const Bytes big = a.bytes(200);  // > 3 ChaCha blocks
  Drbg b(5u);
  Bytes parts;
  for (int i = 0; i < 8; ++i) {
    const Bytes p = b.bytes(25);
    parts.insert(parts.end(), p.begin(), p.end());
  }
  EXPECT_EQ(big, parts);
}

TEST(Dst40, DeterministicResponses) {
  const Dst40 t(0x123456789aULL);
  EXPECT_EQ(t.respond(0xdeadbeef42ULL), t.respond(0xdeadbeef42ULL));
  EXPECT_LE(t.respond(0xdeadbeef42ULL), Dst40::kResponseMask);
}

TEST(Dst40, KeyMasking) {
  // Only the low 40 bits of the key matter.
  const Dst40 a(0x123456789aULL);
  const Dst40 b(0xff123456789aULL);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.respond(1), b.respond(1));
}

TEST(Dst40, ChallengeSensitivity) {
  const Dst40 t(0x5555555555ULL);
  int diffs = 0;
  for (std::uint64_t c = 0; c < 64; ++c) {
    if (t.respond(c) != t.respond(c + 1)) ++diffs;
  }
  EXPECT_GT(diffs, 60);  // nearly every challenge change flips the response
}

TEST(Dst40, KeySensitivity) {
  util::Rng rng(4242);
  int collisions = 0;
  const std::uint64_t challenge = 0xabcdef0123ULL;
  const Dst40 ref(0x1111111111ULL);
  for (int i = 0; i < 200; ++i) {
    const Dst40 other(rng.next_u64() & Dst40::kKeyMask);
    if (other.key() != ref.key() && other.respond(challenge) == ref.respond(challenge)) {
      ++collisions;
    }
  }
  // 24-bit responses: a couple of random collisions are possible, many are not.
  EXPECT_LT(collisions, 5);
}

}  // namespace
}  // namespace aseck::crypto
