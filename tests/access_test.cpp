// Tests for access security: immobilizer + DST crack, PKES relay attack and
// distance bounding, smart-device access tokens.

#include <gtest/gtest.h>

#include "access/immobilizer.hpp"
#include "access/pkes.hpp"
#include "access/smartkey.hpp"

namespace aseck::access {
namespace {

TEST(Immobilizer, AuthorizesPairedKeyOnly) {
  const std::uint64_t key = 0x1234567890ULL & crypto::Dst40::kKeyMask;
  Immobilizer immo(key, 42);
  Transponder good(key), bad(key ^ 0x1);
  int good_ok = 0, bad_ok = 0;
  for (int i = 0; i < 50; ++i) {
    if (immo.authorize(good)) ++good_ok;
    if (immo.authorize(bad)) ++bad_ok;
  }
  EXPECT_EQ(good_ok, 50);
  EXPECT_LE(bad_ok, 1);  // 24-bit response: negligible collision chance
  EXPECT_EQ(immo.rounds(), 100u);
}

TEST(Immobilizer, CrackRecoversKeyInSubspace) {
  const std::uint64_t key = 0x00000a3f17ULL;  // low 20 bits unknown
  Transponder victim(key);
  // Eavesdrop two challenge/response pairs.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs;
  util::Rng rng(1);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t c = rng.next_u64() & crypto::Dst40::kChallengeMask;
    pairs.emplace_back(c, victim.respond(c));
  }
  const CrackResult r = crack_transponder(pairs, key, /*key_bits=*/20);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, key);
  EXPECT_LE(r.keys_tried, 1ULL << 20);
  EXPECT_EQ(r.pairs_needed, 2u);
  // The cracked key clones the fob.
  Immobilizer immo(key, 7);
  Transponder clone(r.key);
  EXPECT_TRUE(immo.authorize(clone));
}

TEST(Immobilizer, CrackNeedsTwoPairsToDisambiguate) {
  // With one pair there can be false positives (2^20 keys vs 2^24 responses
  // -> expected ~0.06 collisions, usually none, but the key itself is found).
  const std::uint64_t key = 0x0000012345ULL;
  Transponder victim(key);
  util::Rng rng(2);
  const std::uint64_t c = rng.next_u64() & crypto::Dst40::kChallengeMask;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> one_pair{
      {c, victim.respond(c)}};
  const CrackResult r = crack_transponder(one_pair, key, 16);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.pairs_needed, 1u);
}

TEST(Immobilizer, CrackHandlesEmptyAndBadInput) {
  EXPECT_FALSE(crack_transponder({}, 0, 16).found);
  EXPECT_FALSE(crack_transponder({{1, 2}}, 0, 41).found);
}

crypto::Block pkes_key() {
  crypto::Block k;
  k.fill(0x77);
  return k;
}

TEST(Pkes, NormalUnlockInRange) {
  PkesCar car(pkes_key(), 1);
  KeyFob fob(pkes_key());
  const auto a = car.try_unlock(fob, 1.0);
  EXPECT_TRUE(a.unlocked);
  EXPECT_TRUE(a.response_valid);
  EXPECT_FALSE(a.out_of_range);
  // RTT dominated by fob processing (~300 us).
  EXPECT_NEAR(a.rtt_us, 300.0, 5.0);
}

TEST(Pkes, OutOfRangeWithoutRelay) {
  PkesCar car(pkes_key(), 1);
  KeyFob fob(pkes_key());
  const auto a = car.try_unlock(fob, 30.0);
  EXPECT_FALSE(a.unlocked);
  EXPECT_TRUE(a.out_of_range);
}

TEST(Pkes, WrongKeyFobRejected) {
  PkesCar car(pkes_key(), 1);
  crypto::Block other;
  other.fill(0x78);
  KeyFob wrong(other);
  const auto a = car.try_unlock(wrong, 1.0);
  EXPECT_FALSE(a.unlocked);
  EXPECT_FALSE(a.response_valid);
}

TEST(Pkes, RelayAttackSucceedsWithoutDistanceBounding) {
  // Fob is 30 m away (owner in a cafe); relay stations bridge the gap.
  PkesCar car(pkes_key(), 1);
  KeyFob fob(pkes_key());
  RelayAttacker relay;
  relay.active = true;
  const auto a = car.try_unlock(fob, 30.0, relay);
  EXPECT_TRUE(a.unlocked);  // the Francillon et al. result
  EXPECT_GT(a.rtt_us, 300.0 + 2 * relay.link_latency_us - 5.0);
}

TEST(Pkes, DistanceBoundingBlocksRelay) {
  PkesCar car(pkes_key(), 1);
  // Budget: fob processing + small margin. Relay adds >= 50 us.
  car.set_rtt_limit(310.0);
  KeyFob fob(pkes_key());
  RelayAttacker relay;
  relay.active = true;
  const auto attack = car.try_unlock(fob, 30.0, relay);
  EXPECT_FALSE(attack.unlocked);
  EXPECT_TRUE(attack.rtt_rejected);
  // Legitimate use still works under the same budget.
  const auto legit = car.try_unlock(fob, 1.0);
  EXPECT_TRUE(legit.unlocked);
}

TEST(Pkes, RelayStationsMustBeNearCarAndFob) {
  PkesCar car(pkes_key(), 1);
  KeyFob fob(pkes_key());
  RelayAttacker relay;
  relay.active = true;
  relay.station_to_fob_m = 10.0;  // station too far from the fob
  const auto a = car.try_unlock(fob, 30.0, relay);
  EXPECT_FALSE(a.unlocked);
  EXPECT_TRUE(a.out_of_range);
}

TEST(SmartKey, TokenLifecycle) {
  crypto::Drbg rng(99u);
  KeyServer server(rng);
  const auto phone = crypto::EcdsaPrivateKey::generate(rng);
  const AccessToken token =
      server.issue("phone-1", phone.public_key(),
                   {Capability::kUnlock, Capability::kStart}, SimTime::from_s(3600));
  SmartAccess car(server.public_key(), &server);

  const util::Bytes challenge = util::from_string("nonce-123");
  const auto proof = phone.sign(challenge);
  EXPECT_EQ(car.request(token, Capability::kUnlock, SimTime::from_s(10),
                        challenge, proof),
            SmartAccess::Result::kGranted);
  // Capability not granted.
  EXPECT_EQ(car.request(token, Capability::kTrunkOnly, SimTime::from_s(10),
                        challenge, proof),
            SmartAccess::Result::kNoCapability);
  // Expired.
  EXPECT_EQ(car.request(token, Capability::kUnlock, SimTime::from_s(4000),
                        challenge, proof),
            SmartAccess::Result::kExpired);
  // Revoked (lost phone).
  server.revoke("phone-1");
  EXPECT_EQ(car.request(token, Capability::kUnlock, SimTime::from_s(10),
                        challenge, proof),
            SmartAccess::Result::kRevoked);
}

TEST(SmartKey, StolenTokenUselessWithoutDeviceKey) {
  crypto::Drbg rng(100u);
  KeyServer server(rng);
  const auto phone = crypto::EcdsaPrivateKey::generate(rng);
  const auto thief = crypto::EcdsaPrivateKey::generate(rng);
  const AccessToken token = server.issue("phone-1", phone.public_key(),
                                         {Capability::kUnlock}, SimTime::from_s(3600));
  SmartAccess car(server.public_key(), &server);
  const util::Bytes challenge = util::from_string("nonce-456");
  // Thief has the token bytes but not the phone's private key.
  EXPECT_EQ(car.request(token, Capability::kUnlock, SimTime::from_s(10),
                        challenge, thief.sign(challenge)),
            SmartAccess::Result::kBadSignature);
}

TEST(SmartKey, ForgedTokenRejected) {
  crypto::Drbg rng(101u);
  KeyServer server(rng);
  const auto phone = crypto::EcdsaPrivateKey::generate(rng);
  AccessToken forged = server.issue("phone-1", phone.public_key(),
                                    {Capability::kUnlock}, SimTime::from_s(100));
  forged.capabilities.insert(Capability::kStart);  // escalate without re-sign
  SmartAccess car(server.public_key(), &server);
  const util::Bytes challenge = util::from_string("x");
  EXPECT_EQ(car.request(forged, Capability::kStart, SimTime::from_s(10),
                        challenge, phone.sign(challenge)),
            SmartAccess::Result::kBadToken);
}

}  // namespace
}  // namespace aseck::access
