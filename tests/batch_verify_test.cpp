// Differential and adversarial tests for the batch ECDSA verifier: every
// verdict must match the per-item slow oracle bit-for-bit, no matter how the
// batch is poisoned (corrupt signatures, stripped or tampered parity hints,
// null items, out-of-range scalars).

#include <gtest/gtest.h>

#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"

namespace aseck::crypto {
namespace {

EcdsaPrivateKey test_key(std::uint8_t tag) {
  util::Bytes secret(32, tag);
  secret[0] = 0x11;  // keep the scalar nonzero for tag == 0
  return EcdsaPrivateKey::from_secret(secret);
}

Digest test_digest(std::uint32_t i) {
  util::Bytes msg{'b', 'a', 't', 'c', 'h'};
  util::append_be(msg, i, 4);
  return sha256(msg);
}

struct Signed {
  EcdsaPublicKey pub;
  Digest digest;
  EcdsaSignature sig;
};

std::vector<Signed> make_corpus(std::size_t n, std::size_t keys = 4) {
  std::vector<EcdsaPrivateKey> ks;
  for (std::size_t k = 0; k < keys; ++k) {
    ks.push_back(test_key(static_cast<std::uint8_t>(0x20 + k)));
  }
  std::vector<Signed> out;
  for (std::size_t i = 0; i < n; ++i) {
    const EcdsaPrivateKey& k = ks[i % ks.size()];
    const Digest d = test_digest(static_cast<std::uint32_t>(i));
    out.push_back({k.public_key(), d, k.sign_digest(d)});
  }
  return out;
}

std::vector<BatchVerifyItem> items_of(const std::vector<Signed>& corpus) {
  std::vector<BatchVerifyItem> items;
  for (const Signed& s : corpus) items.push_back({&s.pub, s.digest, &s.sig});
  return items;
}

void expect_matches_slow_oracle(const std::vector<BatchVerifyItem>& items,
                                const std::vector<bool>& got) {
  ASSERT_EQ(got.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool expected =
        items[i].pub && items[i].sig &&
        ecdsa_verify_digest_slow(*items[i].pub, items[i].digest,
                                 *items[i].sig);
    EXPECT_EQ(got[i], expected) << "item " << i;
  }
}

TEST(BatchVerify, SignerAttachesParityHint) {
  const auto corpus = make_corpus(8);
  for (const Signed& s : corpus) {
    ASSERT_TRUE(s.sig.has_r_parity());
    // The hint must decompress to a point whose x is exactly r.
    const auto R = p256::decompress(s.sig.r, s.sig.r_parity == 1);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->x, s.sig.r);
  }
}

TEST(BatchVerify, ParityHintSurvivesEqualityAndNotSerialization) {
  const auto corpus = make_corpus(1);
  const EcdsaSignature& sig = corpus[0].sig;
  const auto round = EcdsaSignature::from_bytes(sig.to_bytes());
  ASSERT_TRUE(round.has_value());
  EXPECT_FALSE(round->has_r_parity());  // wire format is bare r||s
  EXPECT_EQ(*round, sig);               // equality ignores the hint
}

TEST(BatchVerify, AllValidBatchIsOneRlcCheck) {
  const auto corpus = make_corpus(32);
  const auto items = items_of(corpus);
  BatchVerifyStats st;
  const auto got = ecdsa_verify_batch(items, {}, &st);
  expect_matches_slow_oracle(items, got);
  EXPECT_EQ(st.items, 32u);
  EXPECT_EQ(st.rlc_checks, 1u);
  EXPECT_EQ(st.bisections, 0u);
  EXPECT_EQ(st.single_checks, 0u);
}

TEST(BatchVerify, BisectionIsolatesCorruptedSignatures) {
  auto corpus = make_corpus(16);
  // Corrupt two signatures in different halves.
  corpus[3].sig.s = add_mod(corpus[3].sig.s, U256::one(), p256::N());
  corpus[12].digest[0] ^= 0xff;
  const auto items = items_of(corpus);
  BatchVerifyStats st;
  const auto got = ecdsa_verify_batch(items, {}, &st);
  expect_matches_slow_oracle(items, got);
  EXPECT_GT(st.bisections, 0u);
  EXPECT_GT(st.single_checks, 0u);
}

TEST(BatchVerify, StrippedHintFallsBackPerItemButStaysCorrect) {
  auto corpus = make_corpus(8);
  for (std::size_t i = 0; i < corpus.size(); i += 2) {
    corpus[i].sig.r_parity = EcdsaSignature::kNoRParity;
  }
  const auto items = items_of(corpus);
  BatchVerifyStats st;
  const auto got = ecdsa_verify_batch(items, {}, &st);
  expect_matches_slow_oracle(items, got);
  EXPECT_EQ(st.single_checks, 4u);  // the stripped half
  EXPECT_EQ(st.rlc_checks, 1u);     // the hinted half still batches
}

TEST(BatchVerify, TamperedHintCostsWorkNotCorrectness) {
  auto corpus = make_corpus(8);
  corpus[5].sig.r_parity ^= 1;  // lie about R's parity on a VALID signature
  const auto items = items_of(corpus);
  BatchVerifyStats st;
  const auto got = ecdsa_verify_batch(items, {}, &st);
  // The flipped hint decompresses to -R, fails the RLC, and the singleton
  // leaf re-verifies with the standard (hint-free) path: still accepted.
  expect_matches_slow_oracle(items, got);
  EXPECT_TRUE(got[5]);
  EXPECT_GT(st.bisections, 0u);
}

TEST(BatchVerify, MalformedItemsMatchOracle) {
  auto corpus = make_corpus(10);
  std::vector<BatchVerifyItem> items = items_of(corpus);
  items[0].pub = nullptr;
  items[1].sig = nullptr;
  EcdsaSignature zero_r = corpus[2].sig;
  zero_r.r = U256{};
  items[2].sig = &zero_r;
  EcdsaSignature big_s = corpus[3].sig;
  big_s.s = p256::N();
  items[3].sig = &big_s;
  EcdsaPublicKey off_curve = corpus[4].pub;
  off_curve.point.y = add_mod(off_curve.point.y, U256::one(), p256::P());
  items[4].pub = &off_curve;
  const auto got = ecdsa_verify_batch(items);
  expect_matches_slow_oracle(items, got);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(got[static_cast<std::size_t>(i)]);
}

TEST(BatchVerify, DeterministicAcrossRunsAndSaltSensitive) {
  auto corpus = make_corpus(12);
  corpus[7].sig.r = add_mod(corpus[7].sig.r, U256::one(), p256::N());
  const auto items = items_of(corpus);
  BatchVerifyStats a, b;
  const auto run1 = ecdsa_verify_batch(items, {}, &a);
  const auto run2 = ecdsa_verify_batch(items, {}, &b);
  EXPECT_EQ(run1, run2);
  EXPECT_EQ(a.rlc_checks, b.rlc_checks);
  EXPECT_EQ(a.bisections, b.bisections);
  EXPECT_EQ(a.single_checks, b.single_checks);
  // A different salt changes the randomizers, never the verdicts.
  const util::Bytes salt{0xde, 0xad};
  const auto run3 = ecdsa_verify_batch(items, salt);
  EXPECT_EQ(run1, run3);
}

TEST(BatchVerify, EmptyBatch) {
  BatchVerifyStats st;
  EXPECT_TRUE(ecdsa_verify_batch({}, {}, &st).empty());
  EXPECT_EQ(st.rlc_checks, 0u);
}

TEST(P256Decompress, RoundTripsPublicKeysAndRejectsNonResidues) {
  for (std::uint8_t tag = 1; tag < 6; ++tag) {
    const auto pt = test_key(tag).public_key().point;
    const auto even = p256::decompress(pt.x, pt.y.is_odd());
    ASSERT_TRUE(even.has_value());
    EXPECT_EQ(even->x, pt.x);
    EXPECT_EQ(even->y, pt.y);
    const auto other = p256::decompress(pt.x, !pt.y.is_odd());
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(sub_mod(U256{}, other->y, p256::P()), pt.y);
  }
  // x >= p is rejected outright.
  EXPECT_FALSE(p256::decompress(p256::P(), false).has_value());
}

TEST(P256MultiScalar, MatchesNaiveSum) {
  const auto k1 = test_key(0x31);
  const auto k2 = test_key(0x32);
  const U256 g_coeff = U256::from_u64(0x1234567890abcdefULL);
  const U256 s1 = mod_generic(U256::from_bytes(sha256(util::from_string("a"))),
                              p256::N());
  const U256 s2 = mod_generic(U256::from_bytes(sha256(util::from_string("b"))),
                              p256::N());
  std::vector<p256::MultiScalarTerm> terms{
      {s1, k1.public_key().point},
      {s2, k2.public_key().point},
  };
  const auto got = p256::to_affine(p256::multi_scalar_mult(g_coeff, terms));
  p256::JacobianPoint want = p256::scalar_mult_base(g_coeff);
  want = p256::add(want, p256::scalar_mult(s1, k1.public_key().point));
  want = p256::add(want, p256::scalar_mult(s2, k2.public_key().point));
  EXPECT_EQ(got, p256::to_affine(want));
  // Seed-tier oracle: (g*G + s1*Q1) + s2*Q2 from the 1-bit Shamir kernel,
  // so the scalar multiplications share no formula with multi_scalar_mult.
  const auto seed = p256::add(
      p256::double_scalar_mult_shamir(g_coeff, s1, k1.public_key().point),
      p256::double_scalar_mult_shamir(U256{}, s2, k2.public_key().point));
  EXPECT_EQ(got, p256::to_affine(seed));
}

TEST(P256MultiScalar, HandlesZeroAndInfinityTerms) {
  const auto k1 = test_key(0x41);
  std::vector<p256::MultiScalarTerm> terms{
      {U256{}, k1.public_key().point},                    // zero scalar
      {U256::from_u64(7), p256::AffinePoint::make_infinity()},
  };
  EXPECT_TRUE(p256::multi_scalar_mult(U256{}, terms).is_infinity());
  const auto only_g = p256::multi_scalar_mult(U256::from_u64(5), terms);
  EXPECT_EQ(p256::to_affine(only_g),
            p256::to_affine(p256::scalar_mult_base(U256::from_u64(5))));
}

}  // namespace
}  // namespace aseck::crypto
