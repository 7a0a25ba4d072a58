// Tests for the 256-bit integer layer, P-256 curve arithmetic, ECDSA, ECDH.

#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/u256.hpp"
#include "util/rng.hpp"

namespace aseck::crypto {
namespace {

using util::Bytes;

TEST(U256, HexRoundTrip) {
  const U256 v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff");
  EXPECT_EQ(v.to_hex(),
            "000000000000000000000000deadbeef00112233445566778899aabbccddeeff");
  EXPECT_EQ(U256::from_hex(v.to_hex()), v);
  EXPECT_THROW(U256::from_hex(std::string(65, 'f')), std::invalid_argument);
  EXPECT_THROW(U256::from_hex("xyz"), std::invalid_argument);
}

TEST(U256, BytesRoundTrip) {
  const U256 v = U256::from_u64(0x1122334455667788ULL);
  const Bytes b = v.to_bytes();
  EXPECT_EQ(b.size(), 32u);
  EXPECT_EQ(U256::from_bytes(b), v);
  // Short input left-pads.
  EXPECT_EQ(U256::from_bytes(Bytes{0x01, 0x02}), U256::from_u64(0x0102));
}

TEST(U256, CompareAndBits) {
  const U256 a = U256::from_u64(5), b = U256::from_u64(9);
  EXPECT_TRUE(a < b);
  EXPECT_EQ(cmp(a, a), 0);
  EXPECT_EQ(cmp(b, a), 1);
  EXPECT_TRUE(U256::zero().is_zero());
  EXPECT_EQ(U256::from_u64(0x100).top_bit(), 8);
  EXPECT_EQ(U256::zero().top_bit(), -1);
  EXPECT_TRUE(U256::from_u64(3).is_odd());
  EXPECT_FALSE(U256::from_u64(4).is_odd());
}

TEST(U256, AddSubCarry) {
  U256 max;
  for (auto& w : max.w) w = 0xffffffffu;
  U256 r;
  EXPECT_EQ(add(r, max, U256::one()), 1u);  // wraps with carry
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(sub(r, U256::zero(), U256::one()), 1u);  // borrows
  EXPECT_EQ(r, max);
  EXPECT_EQ(add(r, U256::from_u64(7), U256::from_u64(8)), 0u);
  EXPECT_EQ(r, U256::from_u64(15));
}

TEST(U256, ShiftOps) {
  U256 v = U256::from_u64(1);
  for (int i = 0; i < 255; ++i) EXPECT_EQ(shl1(v), 0u);
  EXPECT_EQ(v.top_bit(), 255);
  EXPECT_EQ(shl1(v), 1u);  // shifts out
  EXPECT_TRUE(v.is_zero());
  v = U256::from_u64(6);
  shr1(v);
  EXPECT_EQ(v, U256::from_u64(3));
}

TEST(U256, MulAgainstNative) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() >> 1;
    const std::uint64_t b = rng.next_u64() >> 1;
    const U512 p = mul(U256::from_u64(a), U256::from_u64(b));
    const __uint128_t expect = static_cast<__uint128_t>(a) * b;
    std::uint64_t lo = (std::uint64_t{p.w[1]} << 32) | p.w[0];
    std::uint64_t hi = (std::uint64_t{p.w[3]} << 32) | p.w[2];
    EXPECT_EQ(lo, static_cast<std::uint64_t>(expect));
    EXPECT_EQ(hi, static_cast<std::uint64_t>(expect >> 64));
    for (std::size_t j = 4; j < 16; ++j) EXPECT_EQ(p.w[j], 0u);
  }
}

TEST(U256, ModGenericMatchesNative) {
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t m = (rng.next_u64() >> 20) + 1;
    EXPECT_EQ(mod_generic(U256::from_u64(x), U256::from_u64(m)),
              U256::from_u64(x % m));
  }
  EXPECT_THROW(mod_generic(U256::one(), U256::zero()), std::invalid_argument);
}

TEST(U256, ModularOpsSmall) {
  const U256 m = U256::from_u64(97);
  EXPECT_EQ(add_mod(U256::from_u64(90), U256::from_u64(10), m), U256::from_u64(3));
  EXPECT_EQ(sub_mod(U256::from_u64(5), U256::from_u64(10), m), U256::from_u64(92));
  EXPECT_EQ(mul_mod(U256::from_u64(13), U256::from_u64(15), m),
            U256::from_u64(13 * 15 % 97));
  EXPECT_EQ(pow_mod(U256::from_u64(2), U256::from_u64(10), m),
            U256::from_u64(1024 % 97));
  EXPECT_EQ(pow_mod(U256::from_u64(5), U256::zero(), m), U256::one());
}

TEST(U256, InverseModPrime) {
  const U256 m = U256::from_u64(101);
  for (std::uint64_t a = 1; a < 101; ++a) {
    const U256 inv = inv_mod_prime(U256::from_u64(a), m);
    EXPECT_EQ(mul_mod(U256::from_u64(a), inv, m), U256::one()) << a;
  }
}

TEST(P256, FastReductionMatchesGeneric) {
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    U512 x;
    for (auto& w : x.w) w = rng.next_u32();
    EXPECT_EQ(p256::reduce_p(x), mod_generic(x, p256::P())) << "iter " << i;
  }
}

TEST(P256, ReduceNMatchesGeneric) {
  // Every value below 2^256 is < 2n, so one conditional subtraction must
  // agree with the bit-serial generic reduction everywhere.
  util::Rng rng(6);
  std::vector<U256> cases;
  for (int i = 0; i < 200; ++i) {
    U256 x;
    for (auto& w : x.w) w = rng.next_u32();
    cases.push_back(x);
  }
  U256 n_minus_1, n_plus_1, all_ones;
  sub(n_minus_1, p256::N(), U256::one());
  add(n_plus_1, p256::N(), U256::one());
  for (auto& w : all_ones.w) w = 0xffffffffu;
  for (const U256& x : {U256::zero(), n_minus_1, p256::N(), n_plus_1, all_ones}) {
    cases.push_back(x);
  }
  for (const U256& x : cases) {
    EXPECT_EQ(p256::reduce_n(x), mod_generic(x, p256::N())) << x.to_hex();
  }
}

TEST(P256, GeneratorOnCurve) {
  EXPECT_TRUE(p256::on_curve(p256::generator()));
}

TEST(P256, DoubleGKnownAnswer) {
  // 2G for P-256 (public test value).
  const auto two_g = p256::to_affine(
      p256::dbl(p256::JacobianPoint::from_affine(p256::generator())));
  EXPECT_EQ(two_g.x.to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(two_g.y.to_hex(),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
  EXPECT_TRUE(p256::on_curve(two_g));
}

TEST(P256, OrderTimesGIsInfinity) {
  EXPECT_TRUE(p256::scalar_mult_base(p256::N()).is_infinity());
}

TEST(P256, NMinusOneGIsMinusG) {
  U256 nm1;
  sub(nm1, p256::N(), U256::one());
  const auto p = p256::to_affine(p256::scalar_mult_base(nm1));
  EXPECT_EQ(p.x, p256::Gx());
  U256 neg_y;
  sub(neg_y, p256::P(), p256::Gy());
  EXPECT_EQ(p.y, neg_y);
}

TEST(P256, ScalarMultDistributes) {
  // (a+b)G == aG + bG for random small scalars.
  util::Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    const U256 a = U256::from_u64(rng.next_u64());
    const U256 b = U256::from_u64(rng.next_u64());
    U256 ab;
    add(ab, a, b);
    const auto lhs = p256::to_affine(p256::scalar_mult_base(ab));
    const auto rhs = p256::to_affine(
        p256::add(p256::scalar_mult_base(a), p256::scalar_mult_base(b)));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(P256, MixedAddSpecialCases) {
  const auto g = p256::generator();
  const auto gj = p256::JacobianPoint::from_affine(g);
  // P + infinity-affine semantics via add(): inf + G = G.
  const auto sum = p256::add(p256::JacobianPoint::make_infinity(), gj);
  EXPECT_EQ(p256::to_affine(sum), g);
  // G + G via add_mixed must equal dbl(G).
  const auto via_add = p256::to_affine(p256::add_mixed(gj, g));
  const auto via_dbl = p256::to_affine(p256::dbl(gj));
  EXPECT_EQ(via_add, via_dbl);
  // G + (-G) = infinity.
  p256::AffinePoint neg_g = g;
  U256 ny;
  sub(ny, p256::P(), g.y);
  neg_g.y = ny;
  EXPECT_TRUE(p256::add_mixed(gj, neg_g).is_infinity());
}

TEST(P256, OnCurveRejects) {
  p256::AffinePoint bogus{U256::from_u64(1), U256::from_u64(1), false};
  EXPECT_FALSE(p256::on_curve(bogus));
  EXPECT_FALSE(p256::on_curve(p256::AffinePoint::make_infinity()));
  p256::AffinePoint big = p256::generator();
  big.x = p256::P();
  EXPECT_FALSE(p256::on_curve(big));
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  Drbg rng(2024u);
  const auto key = EcdsaPrivateKey::generate(rng);
  EXPECT_TRUE(key.public_key().valid());
  const Bytes msg = util::from_string("basic safety message");
  const EcdsaSignature sig = key.sign(msg);
  EXPECT_TRUE(ecdsa_verify(key.public_key(), msg, sig));
}

TEST(Ecdsa, RejectsWrongMessageAndKey) {
  Drbg rng(2025u);
  const auto key = EcdsaPrivateKey::generate(rng);
  const auto other = EcdsaPrivateKey::generate(rng);
  const Bytes msg = util::from_string("hello");
  const EcdsaSignature sig = key.sign(msg);
  EXPECT_FALSE(ecdsa_verify(key.public_key(), util::from_string("hellp"), sig));
  EXPECT_FALSE(ecdsa_verify(other.public_key(), msg, sig));
  EcdsaSignature bad = sig;
  bad.r = add_mod(bad.r, U256::one(), p256::N());
  EXPECT_FALSE(ecdsa_verify(key.public_key(), msg, bad));
  bad = sig;
  bad.s = U256::zero();
  EXPECT_FALSE(ecdsa_verify(key.public_key(), msg, bad));
}

TEST(Ecdsa, DeterministicSignatures) {
  Drbg rng(2026u);
  const auto key = EcdsaPrivateKey::generate(rng);
  const Bytes msg = util::from_string("idempotent");
  EXPECT_EQ(key.sign(msg), key.sign(msg));
  EXPECT_NE(key.sign(msg).to_bytes(),
            key.sign(util::from_string("different")).to_bytes());
}

TEST(Ecdsa, SerializationRoundTrips) {
  Drbg rng(2027u);
  const auto key = EcdsaPrivateKey::generate(rng);
  const Bytes pub_bytes = key.public_key().to_bytes();
  EXPECT_EQ(pub_bytes.size(), 65u);
  const auto pub2 = EcdsaPublicKey::from_bytes(pub_bytes);
  ASSERT_TRUE(pub2.has_value());
  EXPECT_EQ(*pub2, key.public_key());

  const EcdsaSignature sig = key.sign(util::from_string("x"));
  const auto sig2 = EcdsaSignature::from_bytes(sig.to_bytes());
  ASSERT_TRUE(sig2.has_value());
  EXPECT_EQ(*sig2, sig);

  EXPECT_FALSE(EcdsaPublicKey::from_bytes(Bytes(64)).has_value());
  Bytes off_curve = pub_bytes;
  off_curve[10] ^= 1;
  EXPECT_FALSE(EcdsaPublicKey::from_bytes(off_curve).has_value());
  EXPECT_FALSE(EcdsaSignature::from_bytes(Bytes(63)).has_value());
}

TEST(Ecdsa, FromSecretDeterministic) {
  const Bytes secret(32, 0x42);
  const auto k1 = EcdsaPrivateKey::from_secret(secret);
  const auto k2 = EcdsaPrivateKey::from_secret(secret);
  EXPECT_EQ(k1.public_key(), k2.public_key());
  EXPECT_THROW(EcdsaPrivateKey::from_secret(Bytes(32, 0)), std::invalid_argument);
}

TEST(Ecdh, SharedSecretAgreement) {
  Drbg rng(2028u);
  const auto alice = EcdsaPrivateKey::generate(rng);
  const auto bob = EcdsaPrivateKey::generate(rng);
  const Bytes info = util::from_string("smart-key session v1");
  const auto s1 = ecdh_shared(alice, bob.public_key(), info, 32);
  const auto s2 = ecdh_shared(bob, alice.public_key(), info, 32);
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s1, *s2);
  EXPECT_EQ(s1->size(), 32u);

  const auto eve = EcdsaPrivateKey::generate(rng);
  const auto s3 = ecdh_shared(eve, bob.public_key(), info, 32);
  ASSERT_TRUE(s3.has_value());
  EXPECT_NE(*s1, *s3);
}

}  // namespace
}  // namespace aseck::crypto

namespace aseck::crypto {
namespace {

TEST(P256Ladder, MatchesDoubleAndAdd) {
  util::Rng rng(2029);
  for (int i = 0; i < 5; ++i) {
    U256 k;
    for (auto& w : k.w) w = rng.next_u32();
    k = mod_generic(k, p256::N());
    const auto a = p256::to_affine(p256::scalar_mult(k, p256::generator()));
    const auto b = p256::to_affine(
        p256::scalar_mult_ladder(k, p256::generator()));
    EXPECT_EQ(a, b);
    // Seed-tier oracle: k*G from the 1-bit Shamir kernel, which shares no
    // point formula with the two Montgomery-core paths above.
    const auto seed = p256::to_affine(
        p256::double_scalar_mult_shamir(k, U256::zero(), p256::generator()));
    EXPECT_EQ(b, seed);
  }
  // Edge scalars.
  EXPECT_TRUE(p256::scalar_mult_ladder(U256::zero(), p256::generator())
                  .is_infinity());
  EXPECT_EQ(p256::to_affine(p256::scalar_mult_ladder(U256::one(),
                                                     p256::generator())),
            p256::generator());
}

TEST(P256Ladder, OpCountIndependentOfHammingWeight) {
  // The §4.2 timing-leakage demonstration: double-and-add's field-op count
  // tracks HW(k); the ladder's does not (for fixed bit length).
  const p256::AffinePoint g = p256::generator();
  // Two same-bit-length scalars with very different Hamming weights.
  U256 sparse = U256::zero();
  sparse.w[7] = 0x80000000u;  // bit 255
  sparse.w[0] = 1;            // HW = 2
  U256 dense;
  for (auto& w : dense.w) w = 0xffffffffu;
  dense = mod_generic(dense, p256::N());  // still ~bit 255, high HW
  dense.w[7] |= 0x80000000u;

  p256::reset_fieldop_count();
  (void)p256::scalar_mult(sparse, g);
  const std::uint64_t da_sparse = p256::fieldop_count();
  p256::reset_fieldop_count();
  (void)p256::scalar_mult(dense, g);
  const std::uint64_t da_dense = p256::fieldop_count();
  // Double-and-add: dense scalar costs substantially more (extra adds).
  EXPECT_GT(da_dense, da_sparse + 500);

  p256::reset_fieldop_count();
  (void)p256::scalar_mult_ladder(sparse, g);
  const std::uint64_t l_sparse = p256::fieldop_count();
  p256::reset_fieldop_count();
  (void)p256::scalar_mult_ladder(dense, g);
  const std::uint64_t l_dense = p256::fieldop_count();
  // Ladder: identical op counts for identical bit lengths.
  EXPECT_EQ(l_sparse, l_dense);
}

TEST(P256Ladder, FieldOpCountIsPerThread) {
  // Shard workers run P-256 concurrently, so the counter is per thread:
  // threads released together, each running the same ladders, must each
  // read exactly the single-threaded count.
  const p256::AffinePoint g = p256::generator();
  const U256 k = mod_generic(
      U256::from_hex(
          "c0ffee0123456789abcdef0123456789abcdef0123456789abcdef0123456789"),
      p256::N());
  const auto count_ladders = [&] {
    p256::reset_fieldop_count();
    for (int i = 0; i < 4; ++i) (void)p256::scalar_mult_ladder(k, g);
    return p256::fieldop_count();
  };
  const std::uint64_t want = count_ladders();
  ASSERT_GT(want, 0u);

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::uint64_t> got(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = count_ladders();
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "thread " << t;
  }
  // The main thread's count is untouched by the workers.
  EXPECT_EQ(p256::fieldop_count(), want);
}

// ---------------------------------------------------------------------------
// Fast-path equivalence and crypto edge cases (PR: verification fast path).

U256 rand_u256(util::Rng& rng) {
  U256 v;
  for (std::size_t i = 0; i < v.w.size(); ++i) v.w[i] = rng.next_u32();
  return v;
}

TEST(P256FastPath, ScalarMultBaseMatchesGenericDoubleAndAdd) {
  // The comb-table fixed-base path must agree with the generic scalar_mult
  // for raw (unreduced) 256-bit scalars and for every boundary scalar.
  util::Rng rng(0xfb17);
  std::vector<U256> cases;
  for (int i = 0; i < 50; ++i) cases.push_back(rand_u256(rng));
  cases.push_back(U256::zero());
  cases.push_back(U256::one());
  U256 n_minus_1, n_plus_1;
  sub(n_minus_1, p256::N(), U256::one());
  add(n_plus_1, p256::N(), U256::one());
  cases.push_back(n_minus_1);
  cases.push_back(p256::N());
  cases.push_back(n_plus_1);
  U256 all_ones;
  for (auto& w : all_ones.w) w = 0xffffffffu;
  cases.push_back(all_ones);
  for (const U256& k : cases) {
    const auto fast = p256::scalar_mult_base(k);
    const auto slow = p256::scalar_mult(k, p256::generator());
    // Seed-tier oracle: the comb and scalar_mult share the Montgomery core's
    // formulas; the 1-bit Shamir kernel does not.
    const auto seed =
        p256::double_scalar_mult_shamir(k, U256::zero(), p256::generator());
    ASSERT_EQ(fast.is_infinity(), slow.is_infinity()) << k.to_hex();
    ASSERT_EQ(fast.is_infinity(), seed.is_infinity()) << k.to_hex();
    if (!fast.is_infinity()) {
      ASSERT_EQ(p256::to_affine(fast), p256::to_affine(slow)) << k.to_hex();
      ASSERT_EQ(p256::to_affine(fast), p256::to_affine(seed)) << k.to_hex();
    }
  }
}

TEST(P256FastPath, DoubleScalarMultMatchesShamirOnRandomInputs) {
  util::Rng rng(0xd5c0);
  for (int i = 0; i < 40; ++i) {
    const U256 u1 = mod_generic(rand_u256(rng), p256::N());
    const U256 u2 = mod_generic(rand_u256(rng), p256::N());
    const U256 d = mod_generic(rand_u256(rng), p256::N());
    const auto q = p256::to_affine(p256::scalar_mult_base(d));
    const auto fast = p256::double_scalar_mult(u1, u2, q);
    const auto slow = p256::double_scalar_mult_shamir(u1, u2, q);
    ASSERT_EQ(fast.is_infinity(), slow.is_infinity());
    if (!fast.is_infinity()) {
      ASSERT_EQ(p256::to_affine(fast), p256::to_affine(slow));
    }
  }
}

TEST(P256FastPath, DoubleScalarMultWithQEqualsMinusG) {
  // q == -G makes the Shamir precomputation G + Q the point at infinity —
  // the table entry both implementations must special-case.
  p256::AffinePoint neg_g = p256::generator();
  U256 ny;
  sub(ny, p256::P(), neg_g.y);
  neg_g.y = ny;

  // u1 == u2: u1*G + u1*(-G) = infinity.
  const U256 u = U256::from_u64(0x1234567);
  EXPECT_TRUE(p256::double_scalar_mult(u, u, neg_g).is_infinity());
  EXPECT_TRUE(p256::double_scalar_mult_shamir(u, u, neg_g).is_infinity());

  // u1 != u2: result is (u1 - u2)*G.
  const U256 u1 = U256::from_u64(1000);
  const U256 u2 = U256::from_u64(1);
  const auto expect = p256::to_affine(p256::scalar_mult_base(U256::from_u64(999)));
  EXPECT_EQ(p256::to_affine(p256::double_scalar_mult(u1, u2, neg_g)), expect);
  EXPECT_EQ(p256::to_affine(p256::double_scalar_mult_shamir(u1, u2, neg_g)),
            expect);
}

TEST(P256FastPath, DoubleScalarMultWithZeroScalars) {
  util::Rng rng(0x0517);
  const U256 d = mod_generic(rand_u256(rng), p256::N());
  const auto q = p256::to_affine(p256::scalar_mult_base(d));
  const U256 u = U256::from_u64(77);

  // u1 = 0: result is u2*Q.
  const auto uq = p256::to_affine(p256::scalar_mult(u, q));
  EXPECT_EQ(p256::to_affine(p256::double_scalar_mult(U256::zero(), u, q)), uq);
  EXPECT_EQ(p256::to_affine(p256::double_scalar_mult_shamir(U256::zero(), u, q)),
            uq);
  // u2 = 0: result is u1*G.
  const auto ug = p256::to_affine(p256::scalar_mult_base(u));
  EXPECT_EQ(p256::to_affine(p256::double_scalar_mult(u, U256::zero(), q)), ug);
  EXPECT_EQ(p256::to_affine(p256::double_scalar_mult_shamir(u, U256::zero(), q)),
            ug);
  // Both zero: infinity.
  EXPECT_TRUE(
      p256::double_scalar_mult(U256::zero(), U256::zero(), q).is_infinity());
}

TEST(P256FastPath, BatchToAffineSkipsInfinityEntries) {
  // Montgomery batch inversion must skip z == 0 entries: inv_mod_prime(0)
  // does not terminate, so an unguarded prefix-product chain would hang.
  std::vector<p256::JacobianPoint> pts;
  pts.push_back(p256::JacobianPoint::make_infinity());
  pts.push_back(p256::scalar_mult_base(U256::from_u64(2)));
  pts.push_back(p256::JacobianPoint::make_infinity());
  pts.push_back(p256::scalar_mult_base(U256::from_u64(3)));
  pts.push_back(p256::scalar_mult_base(U256::from_u64(4)));
  const auto out = p256::batch_to_affine(pts);
  ASSERT_EQ(out.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_infinity()) {
      EXPECT_TRUE(out[i].infinity);
    } else {
      EXPECT_EQ(out[i], p256::to_affine(pts[i]));
    }
  }
  EXPECT_TRUE(p256::batch_to_affine({}).empty());
}

// ---------------------------------------------------------------------------
// Signed comb and the per-thread key combs of double_scalar_mult.

/// sum_i d[i] * 16^i, by Horner from the carry down, in two's complement
/// mod 2^320: the true sum is below 2^257 in magnitude, so equality mod
/// 2^320 is equality.
std::array<std::uint64_t, 5> comb_value(const p256::CombDigits& d) {
  std::array<std::uint64_t, 5> acc{};
  for (int i = p256::kCombWindows; i >= 0; --i) {
    for (std::size_t l = acc.size(); l-- > 1;) {
      acc[l] = (acc[l] << 4) | (acc[l - 1] >> 60);
    }
    acc[0] <<= 4;
    const std::int64_t v = d[static_cast<std::size_t>(i)];
    const std::uint64_t ext = v < 0 ? ~0ULL : 0ULL;
    unsigned __int128 carry = 0;
    for (std::size_t l = 0; l < acc.size(); ++l) {
      const unsigned __int128 t = static_cast<unsigned __int128>(acc[l]) +
                                  (l == 0 ? static_cast<std::uint64_t>(v) : ext) +
                                  carry;
      acc[l] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
  }
  return acc;
}

TEST(P256Comb, SignedRecodingSumsToScalar) {
  util::Rng rng(0xc0b);
  std::vector<U256> cases;
  for (int i = 0; i < 200; ++i) cases.push_back(rand_u256(rng));
  U256 all_ones, n_minus_1;
  for (auto& w : all_ones.w) w = 0xffffffffu;
  sub(n_minus_1, p256::N(), U256::one());
  const U256 eights = U256::from_hex(std::string(64, '8'));
  for (const U256& k : {U256::zero(), all_ones, p256::N(), n_minus_1, eights}) {
    cases.push_back(k);
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const U256& k = cases[c];
    const p256::CombDigits d = p256::comb_digits(k);
    for (int i = 0; i < p256::kCombWindows; ++i) {
      ASSERT_GE(d[static_cast<std::size_t>(i)], -8) << k.to_hex();
      ASSERT_LE(d[static_cast<std::size_t>(i)], 7) << k.to_hex();
    }
    ASSERT_TRUE(d[p256::kCombWindows] == 0 || d[p256::kCombWindows] == 1);
    const auto v = comb_value(d);
    for (std::size_t l = 0; l < 4; ++l) {
      const std::uint64_t want =
          std::uint64_t{k.w[2 * l]} | (std::uint64_t{k.w[2 * l + 1]} << 32);
      ASSERT_EQ(v[l], want) << k.to_hex() << " limb " << l;
    }
    ASSERT_EQ(v[4], 0u) << k.to_hex();
    // The G comb walk against the seed kernel, on a sample of the randoms
    // and every edge scalar.
    if (c % 10 == 0 || c >= 200) {
      const auto fast = p256::scalar_mult_base(k);
      const auto seed =
          p256::double_scalar_mult_shamir(k, U256::zero(), p256::generator());
      ASSERT_EQ(fast.is_infinity(), seed.is_infinity()) << k.to_hex();
      if (!fast.is_infinity()) {
        ASSERT_EQ(p256::to_affine(fast), p256::to_affine(seed)) << k.to_hex();
      }
    }
  }
  // 0x88...8 recodes to all-negative digits and needs the carry.
  EXPECT_EQ(p256::comb_digits(eights)[p256::kCombWindows], 1);
}

/// Field-op counts tell double_scalar_mult's paths apart: with random
/// scalars a comb walk costs ~1300 mul+sqr, a wNAF call ~3000, and the call
/// that builds a comb ~12400.
constexpr std::uint64_t kCombWalkMaxOps = 2000;
constexpr std::uint64_t kBuildMinOps = 10000;

/// Field ops of one double_scalar_mult(u1, u2, q), checked against the seed
/// kernel.
std::uint64_t checked_dsm(const U256& u1, const U256& u2,
                          const p256::AffinePoint& q) {
  p256::reset_fieldop_count();
  const auto fast = p256::double_scalar_mult(u1, u2, q);
  const std::uint64_t ops = p256::fieldop_count();
  const auto slow = p256::double_scalar_mult_shamir(u1, u2, q);
  EXPECT_EQ(fast.is_infinity(), slow.is_infinity())
      << u1.to_hex() << " " << u2.to_hex();
  if (!fast.is_infinity() && !slow.is_infinity()) {
    EXPECT_EQ(p256::to_affine(fast), p256::to_affine(slow))
        << u1.to_hex() << " " << u2.to_hex();
  }
  return ops;
}

/// Runs fn on a new thread, whose key-comb cache starts empty.
template <class Fn>
void on_new_thread(Fn fn) {
  std::thread(fn).join();
}

p256::AffinePoint random_key_point(util::Rng& rng) {
  return p256::to_affine(
      p256::scalar_mult_base(mod_generic(rand_u256(rng), p256::N())));
}

TEST(P256Comb, KeyedPathMatchesShamirOnEdgeScalars) {
  util::Rng rng(0x5eed);
  U256 n_minus_1, two_255;
  sub(n_minus_1, p256::N(), U256::one());
  two_255.w[7] = 0x80000000u;
  const std::vector<U256> scalars = {
      U256::zero(), U256::one(), n_minus_1, two_255,
      U256::from_hex(std::string(64, '8')),  // every digit negative + carry
      U256::from_hex(std::string(64, 'f')), mod_generic(rand_u256(rng), p256::N())};
  // Q = G and Q = -G make G-comb and Q-comb entries coincide or cancel, so
  // add_mixed_fe's doubling and infinity branches run.
  p256::AffinePoint neg_g = p256::generator();
  sub(neg_g.y, p256::P(), neg_g.y);
  std::vector<p256::AffinePoint> keys = {p256::generator(), neg_g};
  for (int i = 0; i < 3; ++i) keys.push_back(random_key_point(rng));

  // Before the comb exists: each pair as the first call on a new thread.
  for (const p256::AffinePoint& q : keys) {
    for (const U256& u1 : scalars) {
      for (const U256& u2 : scalars) {
        on_new_thread([&] { (void)checked_dsm(u1, u2, q); });
      }
    }
  }
  // After: one thread takes every key well past the build threshold; G and
  // -G share x, so a comb looked up by x alone would answer for the other.
  on_new_thread([&] {
    for (const p256::AffinePoint& q : keys) {
      const U256 a = mod_generic(rand_u256(rng), p256::N());
      const U256 b = mod_generic(rand_u256(rng), p256::N());
      for (int call = 1; call <= p256::kKeyCombBuildAfter; ++call) {
        const std::uint64_t ops = checked_dsm(a, b, q);
        if (call < p256::kKeyCombBuildAfter) {
          EXPECT_GT(ops, kCombWalkMaxOps) << "call " << call;
          EXPECT_LT(ops, kBuildMinOps) << "call " << call;
        } else {
          EXPECT_GT(ops, kBuildMinOps) << "the building call";
        }
      }
      EXPECT_LT(checked_dsm(b, a, q), kCombWalkMaxOps);
    }
    for (const p256::AffinePoint& q : keys) {
      for (const U256& u1 : scalars) {
        for (const U256& u2 : scalars) {
          EXPECT_LT(checked_dsm(u1, u2, q), kCombWalkMaxOps);
        }
      }
    }
  });
}

TEST(P256Comb, EvictionSparesBusyCombsAndOneOffStreams) {
  on_new_thread([] {
    util::Rng rng(0xe71c);
    const auto u = [&] { return mod_generic(rand_u256(rng), p256::N()); };
    const auto wnaf_only = [](std::uint64_t ops) {
      return ops > kCombWalkMaxOps && ops < kBuildMinOps;
    };
    std::vector<p256::AffinePoint> keys;
    for (std::size_t i = 0; i < p256::kKeyCombSlots; ++i) {
      keys.push_back(random_key_point(rng));
      for (int call = 0; call < p256::kKeyCombBuildAfter; ++call) {
        (void)checked_dsm(u(), u(), keys.back());
      }
    }
    // One recurring key more than there are slots, round-robin: every comb
    // stays busy, so the extra key stays on the wNAF path and nothing is
    // rebuilt.
    const p256::AffinePoint extra = random_key_point(rng);
    for (int round = 0; round < 2 * p256::kKeyCombBuildAfter; ++round) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_LT(checked_dsm(u(), u(), keys[i]), kCombWalkMaxOps) << "key " << i;
      }
      EXPECT_TRUE(wnaf_only(checked_dsm(u(), u(), extra))) << "round " << round;
    }
    // keys[0] goes idle; once it has been idle for longer than the horizon,
    // the extra key takes its slot.
    const std::size_t rounds =
        p256::kKeyCombHorizon / p256::kKeyCombSlots + 2 * p256::kKeyCombBuildAfter;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t i = 1; i < keys.size(); ++i) {
        EXPECT_LT(checked_dsm(u(), u(), keys[i]), kCombWalkMaxOps) << "key " << i;
      }
      (void)checked_dsm(u(), u(), extra);
    }
    EXPECT_LT(checked_dsm(u(), u(), extra), kCombWalkMaxOps);
    EXPECT_TRUE(wnaf_only(checked_dsm(u(), u(), keys[0])));  // counted afresh
    // A stream of one-off keys, each seen once, builds nothing and evicts
    // no comb, however long the others sit idle meanwhile.
    for (std::size_t i = 0; i < 3 * p256::kKeyCombHorizon; ++i) {
      ASSERT_TRUE(wnaf_only(checked_dsm(u(), u(), random_key_point(rng))))
          << "one-off " << i;
    }
    for (std::size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(checked_dsm(u(), u(), keys[i]), kCombWalkMaxOps) << "key " << i;
    }
    EXPECT_LT(checked_dsm(u(), u(), extra), kCombWalkMaxOps);
  });
}

/// Verdicts of a fixed workload that takes three keys well past the build
/// threshold, with a mutated r, s, digest and key every fourth signature.
std::vector<bool> keyed_verify_verdicts() {
  Drbg rng(0x4c0b);
  std::vector<EcdsaPrivateKey> keys;
  for (int k = 0; k < 3; ++k) keys.push_back(EcdsaPrivateKey::generate(rng));
  std::vector<bool> verdicts;
  const auto verify = [&](const EcdsaPublicKey& pub, const Digest& digest,
                          const EcdsaSignature& sig) {
    const bool fast = ecdsa_verify_digest(pub, digest, sig);
    EXPECT_EQ(fast, ecdsa_verify_digest_slow(pub, digest, sig));
    verdicts.push_back(fast);
  };
  for (int i = 0; i < 12; ++i) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const Digest digest =
          sha256(util::from_string("msg " + std::to_string(i * 3 + k)));
      const EcdsaSignature sig = keys[k].sign_digest(digest);
      const EcdsaPublicKey& pub = keys[k].public_key();
      verify(pub, digest, sig);
      if (i % 4 != 3) continue;
      EcdsaSignature bad = sig;
      bad.r.w[0] ^= 1;
      verify(pub, digest, bad);
      bad = sig;
      bad.s.w[3] ^= 0x100;
      verify(pub, digest, bad);
      Digest mutated = digest;
      mutated[5] ^= 0x01;
      verify(pub, mutated, sig);
      verify(keys[(k + 1) % keys.size()].public_key(), digest, sig);
    }
  }
  return verdicts;
}

TEST(Ecdsa, KeyedPathRejectsMutationsLikeSlowPath) {
  std::vector<bool> verdicts;
  on_new_thread([&] { verdicts = keyed_verify_verdicts(); });
  // Per fourth round and key: genuine, then the four mutations.
  ASSERT_EQ(verdicts.size(), 12u * 3 + 3u * 3 * 4);
  std::size_t at = 0;
  for (int i = 0; i < 12; ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(verdicts[at++]) << "round " << i << " key " << k;
      if (i % 4 != 3) continue;
      for (int m = 0; m < 4; ++m) {
        EXPECT_FALSE(verdicts[at++]) << "round " << i << " key " << k
                                     << " mutation " << m;
      }
    }
  }
}

TEST(Ecdsa, KeyedPathThreadsMatchSingleThreadedVerdicts) {
  // Each thread has its own key combs; threads released together must each
  // reach the single-threaded verdicts.
  std::vector<bool> want;
  on_new_thread([&] { want = keyed_verify_verdicts(); });
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::vector<bool>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = keyed_verify_verdicts();
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "thread " << t;
  }
}

TEST(Ecdsa, RejectsOutOfRangeSignatureComponents) {
  Drbg rng(77u);
  const auto key = EcdsaPrivateKey::generate(rng);
  const Digest digest = sha256(util::from_string("edge"));
  const EcdsaSignature good = key.sign_digest(digest);
  ASSERT_TRUE(ecdsa_verify_digest(key.public_key(), digest, good));

  EcdsaSignature bad = good;
  bad.r = U256::zero();
  EXPECT_FALSE(ecdsa_verify_digest(key.public_key(), digest, bad));
  EXPECT_FALSE(ecdsa_verify_digest_slow(key.public_key(), digest, bad));
  bad = good;
  bad.s = U256::zero();
  EXPECT_FALSE(ecdsa_verify_digest(key.public_key(), digest, bad));
  bad = good;
  bad.r = p256::N();  // r must be in [1, n-1]
  EXPECT_FALSE(ecdsa_verify_digest(key.public_key(), digest, bad));
  bad = good;
  add(bad.s, p256::N(), U256::one());  // s = n + 1
  EXPECT_FALSE(ecdsa_verify_digest(key.public_key(), digest, bad));
}

TEST(Ecdsa, FastAndSlowVerifyAgreeOnThousandRandomPairs) {
  // Bit-for-bit equivalence of the wNAF fast path and the Shamir reference
  // across 1000 seeded (key, digest) pairs, plus corrupted variants.
  util::Rng rng(0x1609);
  for (int i = 0; i < 1000; ++i) {
    std::array<std::uint8_t, 32> secret{};
    const U256 s = rand_u256(rng);
    for (int b = 0; b < 32; ++b) {
      secret[b] = static_cast<std::uint8_t>(s.w[b / 4] >> (8 * (b % 4)));
    }
    secret[31] |= 1;  // never zero
    const auto key =
        EcdsaPrivateKey::from_secret(util::BytesView(secret.data(), 32));
    Digest digest;
    for (int b = 0; b < 32; ++b) digest[b] = static_cast<std::uint8_t>(rng.next_u32());
    const EcdsaSignature sig = key.sign_digest(digest);
    const bool fast = ecdsa_verify_digest(key.public_key(), digest, sig);
    const bool slow = ecdsa_verify_digest_slow(key.public_key(), digest, sig);
    ASSERT_TRUE(fast) << "pair " << i;
    ASSERT_EQ(fast, slow) << "pair " << i;
    if (i % 10 == 0) {  // corrupted digest must fail identically
      Digest mutated = digest;
      mutated[i % 32] ^= 0x01;
      const bool f2 = ecdsa_verify_digest(key.public_key(), mutated, sig);
      const bool s2 = ecdsa_verify_digest_slow(key.public_key(), mutated, sig);
      ASSERT_FALSE(f2) << "pair " << i;
      ASSERT_EQ(f2, s2) << "pair " << i;
    }
  }
}

TEST(Ecdsa, NonceCounterDoesNotWrapAt256) {
  // Regression: the retry counter was a uint8_t, so candidate 256 aliased
  // candidate 0 — a degenerate HMAC stream would loop forever on the same
  // rejected nonce. Candidates must stay distinct past the byte boundary.
  Drbg rng(99u);
  const auto key = EcdsaPrivateKey::generate(rng);
  const Digest digest = sha256(util::from_string("nonce"));
  EXPECT_NE(detail::nonce_candidate(key.scalar(), digest, 0),
            detail::nonce_candidate(key.scalar(), digest, 256));
  std::set<std::string> seen;
  for (std::uint32_t c = 0; c <= 300; ++c) {
    seen.insert(detail::nonce_candidate(key.scalar(), digest, c).to_hex());
  }
  EXPECT_EQ(seen.size(), 301u);
}

}  // namespace
}  // namespace aseck::crypto
