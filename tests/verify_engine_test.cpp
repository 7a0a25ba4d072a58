// Tests for the crypto verification fast path plumbing: the bounded LRU
// cache (util::LruCache) and the VerifyEngine (verify-result caching, batch
// API, crypto.verify.* metrics export).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/verify_engine.hpp"
#include "sim/telemetry.hpp"
#include "util/lru.hpp"

namespace aseck {
namespace {

// ---------------------------------------------------------------------------
// util::LruCache

TEST(LruCache, UnboundedByDefault) {
  util::LruCache<int, int> c;
  for (int i = 0; i < 1000; ++i) c.put(i, i * 2);
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_EQ(c.evictions(), 0u);
  ASSERT_NE(c.find(0), nullptr);
  EXPECT_EQ(*c.find(999), 1998);
}

TEST(LruCache, BoundsSizeAndEvictsLeastRecent) {
  util::LruCache<int, std::string> c(3);
  c.put(1, "a");
  c.put(2, "b");
  c.put(3, "c");
  c.put(4, "d");  // evicts 1 (least recently used)
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_EQ(c.find(1), nullptr);
  EXPECT_NE(c.find(2), nullptr);
}

TEST(LruCache, FindBumpsRecency) {
  util::LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  EXPECT_NE(c.find(1), nullptr);  // 1 becomes most recent
  c.put(3, 30);                   // evicts 2, not 1
  EXPECT_NE(c.find(1), nullptr);
  EXPECT_EQ(c.find(2), nullptr);
  EXPECT_NE(c.find(3), nullptr);
}

TEST(LruCache, PutExistingUpdatesValueWithoutEviction) {
  util::LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  c.put(1, 11);  // update, no growth
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_EQ(*c.find(1), 11);
}

TEST(LruCache, HitMissCounters) {
  util::LruCache<int, int> c(4);
  c.put(1, 1);
  EXPECT_NE(c.find(1), nullptr);
  EXPECT_EQ(c.find(2), nullptr);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(LruCache, SetCapacityEvictsDownImmediately) {
  util::LruCache<int, int> c;
  for (int i = 0; i < 10; ++i) c.put(i, i);
  c.set_capacity(4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.evictions(), 6u);
  // The four most recent survive.
  for (int i = 6; i < 10; ++i) EXPECT_NE(c.find(i), nullptr);
  EXPECT_EQ(c.find(5), nullptr);
}

TEST(LruCache, SetCapacityZeroRebindsToUnbounded) {
  util::LruCache<int, int> c(2);
  c.put(1, 1);
  c.put(2, 2);
  c.set_capacity(0);  // 0 = unbounded, not "evict everything"
  for (int i = 3; i < 100; ++i) c.put(i, i);
  EXPECT_EQ(c.size(), 99u);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_NE(c.find(1), nullptr);  // nothing was dropped by the rebind
}

TEST(LruCache, ClearResetsEntriesKeepsCounters) {
  util::LruCache<int, int> c(2);
  c.put(1, 1);
  c.put(2, 2);
  c.put(3, 3);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.evictions(), 1u);  // history preserved
  EXPECT_EQ(c.find(1), nullptr);
}

// ---------------------------------------------------------------------------
// crypto::VerifyEngine

crypto::EcdsaPrivateKey test_key(std::uint8_t tag) {
  std::array<std::uint8_t, 32> secret{};
  secret.fill(tag);
  secret[31] = 1;  // never zero mod n
  return crypto::EcdsaPrivateKey::from_secret(
      util::BytesView(secret.data(), secret.size()));
}

TEST(VerifyEngine, CachesRepeatVerifications) {
  const auto key = test_key(0x11);
  const util::Bytes msg = {'b', 's', 'm'};
  const crypto::EcdsaSignature sig = key.sign(msg);

  crypto::VerifyEngine eng;
  EXPECT_TRUE(eng.verify(key.public_key(), msg, sig));
  EXPECT_TRUE(eng.verify(key.public_key(), msg, sig));
  EXPECT_TRUE(eng.verify(key.public_key(), msg, sig));
  EXPECT_EQ(eng.calls(), 3u);
  EXPECT_EQ(eng.cache_hits(), 2u);
  EXPECT_EQ(eng.cache_size(), 1u);
}

TEST(VerifyEngine, CachesNegativeVerdicts) {
  const auto key = test_key(0x22);
  const util::Bytes msg = {'x'};
  crypto::EcdsaSignature sig = key.sign(msg);
  sig.s = crypto::U256::from_u64(12345);  // corrupt

  crypto::VerifyEngine eng;
  EXPECT_FALSE(eng.verify(key.public_key(), msg, sig));
  EXPECT_FALSE(eng.verify(key.public_key(), msg, sig));  // cached false
  EXPECT_EQ(eng.cache_hits(), 1u);
}

TEST(VerifyEngine, DistinctInputsAreDistinctEntries) {
  const auto k1 = test_key(0x33);
  const auto k2 = test_key(0x44);
  const util::Bytes msg = {'m'};
  const auto s1 = k1.sign(msg);
  const auto s2 = k2.sign(msg);

  crypto::VerifyEngine eng;
  EXPECT_TRUE(eng.verify(k1.public_key(), msg, s1));
  EXPECT_TRUE(eng.verify(k2.public_key(), msg, s2));
  // Cross pairing: wrong key for signature must fail (and not collide with
  // the cached true verdicts).
  EXPECT_FALSE(eng.verify(k1.public_key(), msg, s2));
  EXPECT_EQ(eng.cache_hits(), 0u);
  EXPECT_EQ(eng.cache_size(), 3u);
}

TEST(VerifyEngine, EvictsWhenCapacityExceeded) {
  const auto key = test_key(0x55);
  crypto::VerifyEngine eng;
  eng.set_cache_capacity(4);
  for (int i = 0; i < 10; ++i) {
    util::Bytes msg = {static_cast<std::uint8_t>(i)};
    const auto sig = key.sign(msg);
    EXPECT_TRUE(eng.verify(key.public_key(), msg, sig));
  }
  EXPECT_EQ(eng.cache_size(), 4u);
  EXPECT_EQ(eng.evictions(), 6u);
}

TEST(VerifyEngine, BatchMatchesScalarVerify) {
  const auto k1 = test_key(0x66);
  const auto k2 = test_key(0x77);
  const util::Bytes m1 = {'a'};
  const util::Bytes m2 = {'b'};
  const crypto::Digest d1 = crypto::sha256(m1);
  const crypto::Digest d2 = crypto::sha256(m2);
  const auto s1 = k1.sign(m1);
  const auto s2 = k2.sign(m2);
  const auto bad = k1.sign(m2);  // wrong digest for d1 slot below

  crypto::VerifyEngine eng;
  std::vector<crypto::VerifyEngine::BatchItem> items;
  items.push_back({&k1.public_key(), d1, &s1});
  items.push_back({&k2.public_key(), d2, &s2});
  items.push_back({&k1.public_key(), d1, &bad});
  const std::vector<bool> out = eng.verify_batch(items);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0]);
  EXPECT_TRUE(out[1]);
  EXPECT_FALSE(out[2]);
  EXPECT_EQ(eng.calls(), 3u);
}

TEST(VerifyEngine, ExportsMetricsUnderCryptoVerifyNames) {
  const auto key = test_key(0x88);
  const util::Bytes msg = {'t'};
  const auto sig = key.sign(msg);

  sim::MetricsRegistry reg;
  crypto::VerifyEngine eng(reg, 1);
  ASSERT_NE(reg.find_counter("crypto.verify.calls"), nullptr);
  ASSERT_NE(reg.find_counter("crypto.verify.cache_hits"), nullptr);
  ASSERT_NE(reg.find_counter("crypto.verify.evictions"), nullptr);

  EXPECT_TRUE(eng.verify(key.public_key(), msg, sig));  // miss
  EXPECT_EQ(reg.find_counter("crypto.verify.calls")->value(), 1u);
  EXPECT_TRUE(eng.verify(key.public_key(), msg, sig));  // hit
  const util::Bytes other = {'u'};
  const auto sig2 = key.sign(other);
  EXPECT_TRUE(eng.verify(key.public_key(), other, sig2));  // evicts first
  EXPECT_EQ(reg.find_counter("crypto.verify.calls")->value(), 3u);
  EXPECT_EQ(reg.find_counter("crypto.verify.cache_hits")->value(), 1u);
  EXPECT_EQ(reg.find_counter("crypto.verify.evictions")->value(), 1u);
}

// Regression (PR 9 bugfix 1): metrics export used to include wall-clock
// verify latency, which made two identical runs export different JSON and
// broke every digest diff downstream. The registry must now be a pure
// function of the verify workload.
TEST(VerifyEngine, MetricsJsonIsBitIdenticalAcrossRuns) {
  auto run = [] {
    const auto k1 = test_key(0x91);
    const auto k2 = test_key(0x92);
    sim::MetricsRegistry reg;
    crypto::VerifyEngine eng(reg);
    eng.set_batch_kernel(true);
    std::vector<crypto::Digest> digests;
    std::vector<crypto::EcdsaSignature> sigs;
    for (int i = 0; i < 8; ++i) {
      util::Bytes msg = {static_cast<std::uint8_t>(i)};
      digests.push_back(crypto::sha256(msg));
      sigs.push_back((i % 2 ? k2 : k1).sign_digest(digests.back()));
    }
    std::vector<crypto::VerifyEngine::BatchItem> items;
    for (int i = 0; i < 8; ++i) {
      items.push_back({i % 2 ? &k2.public_key() : &k1.public_key(),
                       digests[static_cast<std::size_t>(i)],
                       &sigs[static_cast<std::size_t>(i)]});
    }
    eng.verify_batch(items);
    eng.verify_batch(items);  // second pass: all cache hits
    eng.verify_digest(k1.public_key(), digests[0], sigs[0]);
    return reg.to_json();
  };
  EXPECT_EQ(run(), run());
}

// Regression (PR 9 bugfix 2): null-pointer batch items used to be dropped
// from the call accounting, so crypto.verify.calls undercounted the offered
// load whenever a producer handed over a malformed job.
TEST(VerifyEngine, MalformedBatchItemsStillCountAsCalls) {
  const auto key = test_key(0x93);
  const util::Bytes msg = {'z'};
  const crypto::Digest d = crypto::sha256(msg);
  const auto sig = key.sign_digest(d);

  sim::MetricsRegistry reg;
  crypto::VerifyEngine eng(reg);
  std::vector<crypto::VerifyEngine::BatchItem> items;
  items.push_back({&key.public_key(), d, &sig});
  items.push_back({nullptr, d, &sig});             // no key
  items.push_back({&key.public_key(), d, nullptr});  // no signature
  const std::vector<bool> out = eng.verify_batch(items);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
  EXPECT_FALSE(out[2]);
  EXPECT_EQ(eng.calls(), 3u);
  EXPECT_EQ(reg.find_counter("crypto.verify.calls")->value(), 3u);
}

// Engines built on one registry sum their totals, evictions included, and
// the registry agrees with the engines' own counters.
TEST(VerifyEngine, EnginesBoundOntoOneRegistrySumTheirTotals) {
  const auto key = test_key(0x97);
  sim::MetricsRegistry shared;
  crypto::VerifyEngine a(shared, 2), b(shared, 2);
  for (int i = 0; i < 6; ++i) {
    const util::Bytes msg = {static_cast<std::uint8_t>(i)};
    const auto sig = key.sign(msg);
    EXPECT_TRUE(a.verify(key.public_key(), msg, sig));
    EXPECT_TRUE(a.verify(key.public_key(), msg, sig));  // immediate hit
    if (i < 3) {
      EXPECT_TRUE(b.verify(key.public_key(), msg, sig));
    }
  }
  b.set_cache_capacity(1);  // shrinking evicts too
  ASSERT_GT(a.evictions(), 0u);
  ASSERT_GT(b.evictions(), 0u);

  EXPECT_EQ(shared.find_counter("crypto.verify.calls")->value(),
            a.calls() + b.calls());
  EXPECT_EQ(shared.find_counter("crypto.verify.calls")->value(), 15u);
  EXPECT_EQ(shared.find_counter("crypto.verify.cache_hits")->value(),
            a.cache_hits() + b.cache_hits());
  EXPECT_EQ(shared.find_counter("crypto.verify.evictions")->value(),
            a.evictions() + b.evictions());
  EXPECT_EQ(shared.find_counter("crypto.verify.primitive")->value(),
            a.primitive_calls() + b.primitive_calls());
}

TEST(VerifyEngine, BatchKernelVerdictsMatchPerItemPath) {
  const auto k1 = test_key(0x95);
  const auto k2 = test_key(0x96);
  std::vector<crypto::Digest> digests;
  std::vector<crypto::EcdsaSignature> sigs;
  for (int i = 0; i < 12; ++i) {
    util::Bytes msg = {static_cast<std::uint8_t>(i), 0x5a};
    digests.push_back(crypto::sha256(msg));
    sigs.push_back((i % 3 ? k1 : k2).sign_digest(digests.back()));
  }
  sigs[4].s = crypto::U256::from_u64(77);  // corrupt one
  auto items_for = [&](std::vector<crypto::VerifyEngine::BatchItem>& items) {
    for (int i = 0; i < 12; ++i) {
      items.push_back({i % 3 ? &k1.public_key() : &k2.public_key(),
                       digests[static_cast<std::size_t>(i)],
                       &sigs[static_cast<std::size_t>(i)]});
    }
  };
  crypto::VerifyEngine off;
  crypto::VerifyEngine on;
  on.set_batch_kernel(true);
  std::vector<crypto::VerifyEngine::BatchItem> items;
  items_for(items);
  const std::vector<bool> a = off.verify_batch(items);
  const std::vector<bool> b = on.verify_batch(items);
  EXPECT_EQ(a, b);
  EXPECT_GT(on.batched_calls(), 0u);
  EXPECT_EQ(off.batched_calls(), 0u);
}

}  // namespace
}  // namespace aseck
