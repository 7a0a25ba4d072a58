// Tests for the V2X stack: certificates/PKI, signed messages, the radio
// medium, vehicles/RSUs, misbehavior detection, and the tracking adversary.

#include <gtest/gtest.h>

#include "v2x/cert.hpp"
#include "v2x/message.hpp"
#include "v2x/net.hpp"

namespace aseck::v2x {
namespace {

using util::Bytes;

struct Pki {
  crypto::Drbg rng{12345u};
  CertificateAuthority root =
      CertificateAuthority::make_root(rng, "root-ca", SimTime::from_s(100000));
  CertificateAuthority pca = CertificateAuthority::make_sub(
      rng, "pseudonym-ca", root, SimTime::from_s(100000));
  Crl crl;
  TrustStore trust;

  Pki() {
    trust.add_root(root.certificate());
    trust.add_intermediate(pca.certificate());
    trust.set_crl(&crl);
  }

  struct Entity {
    crypto::EcdsaPrivateKey key;
    Certificate cert;
  };
  Entity make_entity(const std::string& name, std::set<Psid> psids,
                     SimTime until = SimTime::from_s(100000)) {
    auto key = crypto::EcdsaPrivateKey::generate(rng);
    auto cert =
        pca.issue(name, key.public_key(), std::move(psids), SimTime::zero(), until);
    return Entity{std::move(key), std::move(cert)};
  }
};

TEST(Cert, ChainValidation) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(10), Psid::kBsm),
            TrustStore::Result::kOk);
}

TEST(Cert, RootSelfValidates) {
  Pki pki;
  EXPECT_EQ(pki.trust.validate(pki.root.certificate(), SimTime::from_s(1),
                               Psid::kBsm),
            TrustStore::Result::kOk);
}

TEST(Cert, ExpiryEnforced) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm}, SimTime::from_s(50));
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(51), Psid::kBsm),
            TrustStore::Result::kExpired);
}

TEST(Cert, PermissionEnforced) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kOtaDistribution),
            TrustStore::Result::kPermissionDenied);
}

TEST(Cert, RevocationEnforced) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kOk);
  pki.crl.revoke(v.cert.id());
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kRevoked);
  EXPECT_EQ(pki.crl.size(), 1u);
}

TEST(Cert, RevokedIntermediatePoisonsChildren) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  pki.crl.revoke(pki.pca.certificate().id());
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kRevoked);
}

TEST(Cert, ForgedCertificateRejected) {
  Pki pki;
  auto v = pki.make_entity("veh1", {Psid::kBsm});
  // Attacker swaps the public key but cannot re-sign.
  crypto::Drbg attacker_rng(666u);
  const auto attacker_key = crypto::EcdsaPrivateKey::generate(attacker_rng);
  v.cert.verify_key = attacker_key.public_key();
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kBadSignature);
}

TEST(Cert, UnknownIssuerRejected) {
  Pki pki;
  crypto::Drbg other_rng(777u);
  auto rogue_ca = CertificateAuthority::make_root(other_rng, "rogue",
                                                  SimTime::from_s(100000));
  auto key = crypto::EcdsaPrivateKey::generate(other_rng);
  const auto cert = rogue_ca.issue("veh-evil", key.public_key(), {Psid::kBsm},
                                   SimTime::zero(), SimTime::from_s(1000));
  EXPECT_EQ(pki.trust.validate(cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kUnknownIssuer);
}

TEST(Cert, IdStableAndBindsContent) {
  Pki pki;
  auto v = pki.make_entity("veh1", {Psid::kBsm});
  const CertId id1 = v.cert.id();
  EXPECT_EQ(id1, v.cert.id());
  Certificate mutated = v.cert;
  mutated.subject = "other";
  EXPECT_NE(cert_id_hex(id1), cert_id_hex(mutated.id()));
}

TEST(Cert, PseudonymBatchProperties) {
  Pki pki;
  const auto batch = pki.pca.issue_pseudonyms(pki.rng, 5, SimTime::from_s(0),
                                              SimTime::from_s(60));
  ASSERT_EQ(batch.certs.size(), 5u);
  ASSERT_EQ(batch.keys.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    // Back-to-back validity.
    EXPECT_EQ(batch.certs[i].valid_from, SimTime::from_s(60 * i));
    EXPECT_TRUE(batch.certs[i].permits(Psid::kBsm));
    // Keys are distinct (unlinkable).
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_NE(cert_id_hex(batch.certs[i].id()), cert_id_hex(batch.certs[j].id()));
    }
    // Each cert validates during its own window.
    EXPECT_EQ(pki.trust.validate(batch.certs[i],
                                 SimTime::from_s(60 * i + 30), Psid::kBsm),
              TrustStore::Result::kOk);
  }
}

TEST(Bsm, SerializeParseRoundTrip) {
  Bsm b;
  b.temp_id = 0xdeadbeef;
  b.pos = {123.5, -44.25};
  b.speed_mps = 27.8;
  b.heading_rad = 1.5708;
  b.generated = SimTime::from_ms(12345);
  const auto parsed = Bsm::parse(b.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->temp_id, b.temp_id);
  EXPECT_DOUBLE_EQ(parsed->pos.x, b.pos.x);
  EXPECT_DOUBLE_EQ(parsed->pos.y, b.pos.y);
  EXPECT_DOUBLE_EQ(parsed->speed_mps, b.speed_mps);
  EXPECT_EQ(parsed->generated, b.generated);
  EXPECT_FALSE(Bsm::parse(Bytes(10)).has_value());
}

TEST(Spdu, SignVerifyOk) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  const Spdu msg = Spdu::sign(Psid::kBsm, SimTime::from_ms(100),
                              Bytes{1, 2, 3}, v.cert, v.key);
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_ms(150), VerifyPolicy{}),
            VerifyStatus::kOk);
}

TEST(Spdu, StaleAndFutureRejected) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  const Spdu msg = Spdu::sign(Psid::kBsm, SimTime::from_s(10), Bytes{1},
                              v.cert, v.key);
  VerifyPolicy policy;
  policy.max_age = SimTime::from_ms(500);
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_s(12), policy),
            VerifyStatus::kStale);  // too old
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_s(9), policy),
            VerifyStatus::kStale);  // from the future
}

TEST(Spdu, TamperedPayloadRejected) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  Spdu msg = Spdu::sign(Psid::kBsm, SimTime::from_ms(100), Bytes{1, 2, 3},
                        v.cert, v.key);
  msg.payload[0] ^= 1;
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_ms(150), VerifyPolicy{}),
            VerifyStatus::kBadSignature);
}

TEST(Spdu, PsidMismatchRejected) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  // Vehicle signs an OTA-distribution message its cert does not permit.
  const Spdu msg = Spdu::sign(Psid::kOtaDistribution, SimTime::from_ms(100),
                              Bytes{1}, v.cert, v.key);
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_ms(150), VerifyPolicy{}),
            VerifyStatus::kCertInvalid);
}

TEST(Spdu, RelevanceCheck) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  const Spdu msg = Spdu::sign(Psid::kBsm, SimTime::from_ms(100), Bytes{1},
                              v.cert, v.key);
  VerifyPolicy policy;
  policy.max_relevance_m = 500;
  const Position me{0, 0};
  const Position near{100, 100};
  const Position far{5000, 5000};
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_ms(150), policy, &me, &near),
            VerifyStatus::kOk);
  EXPECT_EQ(verify_spdu(msg, pki.trust, SimTime::from_ms(150), policy, &me, &far),
            VerifyStatus::kIrrelevant);
}

TEST(Medium, RangeLimitsDelivery) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched, /*range=*/300.0);
  const auto batch1 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(),
                                               SimTime::from_s(1000));
  auto batch_near = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(),
                                             SimTime::from_s(1000));
  auto batch_far = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(),
                                            SimTime::from_s(1000));
  VehicleNode sender(sched, medium, "sender", {0, 0}, 0, 0, pki.trust,
                     std::move(const_cast<CertificateAuthority::PseudonymBatch&>(batch1)));
  VehicleNode near(sched, medium, "near", {100, 0}, 0, 0, pki.trust,
                   std::move(batch_near));
  VehicleNode far(sched, medium, "far", {1000, 0}, 0, 0, pki.trust,
                  std::move(batch_far));
  sender.start();
  sched.run_until(SimTime::from_ms(450));
  sender.stop();
  sched.run();
  EXPECT_GE(near.stats().spdu_received, 4u);
  EXPECT_EQ(far.stats().spdu_received, 0u);
  EXPECT_GT(medium.delivered(), 0u);
}

TEST(Medium, LossProbability) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched, 300.0, /*loss=*/0.5, /*seed=*/7);
  auto b1 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  auto b2 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  VehicleNode sender(sched, medium, "s", {0, 0}, 0, 0, pki.trust, std::move(b1));
  VehicleNode rx(sched, medium, "r", {50, 0}, 0, 0, pki.trust, std::move(b2));
  sender.start();
  sched.run_until(SimTime::from_s(20));
  sender.stop();
  sched.run();
  const double loss_rate = static_cast<double>(medium.lost()) /
                           static_cast<double>(medium.lost() + medium.delivered());
  EXPECT_NEAR(loss_rate, 0.5, 0.1);
  EXPECT_LT(rx.stats().spdu_received, 160u);
  EXPECT_GT(rx.stats().spdu_received, 40u);
}

TEST(Vehicle, BroadcastsVerifiedBsms) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto b1 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  auto b2 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  VehicleNode a(sched, medium, "a", {0, 0}, 14.0, 0, pki.trust, std::move(b1));
  VehicleNode b(sched, medium, "b", {50, 0}, -14.0, 0, pki.trust, std::move(b2));
  int sink_calls = 0;
  b.set_bsm_sink([&](const Bsm& bsm, const Spdu&, SimTime) {
    ++sink_calls;
    EXPECT_GT(bsm.speed_mps, 13.9);
  });
  a.start();
  b.start();
  sched.run_until(SimTime::from_s(2));
  a.stop();
  b.stop();
  sched.run();
  EXPECT_GE(a.stats().bsm_sent, 20u);
  EXPECT_GT(b.stats().verified_ok, 15u);
  EXPECT_EQ(b.stats().misbehavior_flags, 0u);
  EXPECT_GT(sink_calls, 15);
  // Vehicles moved as expected (clock drains slightly past 2 s).
  EXPECT_NEAR(a.position().x, 28.0, 2.0);
}

TEST(Vehicle, PseudonymRotation) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 4, SimTime::zero(),
                                        SimTime::from_s(10));
  PseudonymPolicy policy;
  policy.rotation_period = SimTime::from_s(10);
  VehicleNode v(sched, medium, "v", {0, 0}, 10, 0, pki.trust, std::move(batch),
                policy);
  const std::uint32_t first_id = v.current_temp_id();
  v.start();
  sched.run_until(SimTime::from_s(35));
  v.stop();
  sched.run();
  EXPECT_EQ(v.pseudonym_index(), 3u);
  EXPECT_NE(v.current_temp_id(), first_id);
}

TEST(Vehicle, RotationDisabled) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 4, SimTime::zero(),
                                        SimTime::from_s(1000));
  PseudonymPolicy policy;
  policy.enabled = false;
  VehicleNode v(sched, medium, "v", {0, 0}, 10, 0, pki.trust, std::move(batch),
                policy);
  v.start();
  sched.run_until(SimTime::from_s(30));
  v.stop();
  sched.run();
  EXPECT_EQ(v.pseudonym_index(), 0u);
}

TEST(Misbehavior, FlagsImplausibleSpeedAndJump) {
  MisbehaviorDetector det;
  Bsm ok;
  ok.temp_id = 1;
  ok.pos = {0, 0};
  ok.speed_mps = 30;
  EXPECT_EQ(det.check(ok, SimTime::from_ms(0)), "");
  Bsm fast = ok;
  fast.speed_mps = 200;  // 720 km/h
  EXPECT_EQ(det.check(fast, SimTime::from_ms(100)), "implausible_speed");
  Bsm teleport = ok;
  teleport.pos = {5000, 0};
  EXPECT_EQ(det.check(teleport, SimTime::from_ms(200)), "position_jump");
  EXPECT_EQ(det.flagged(), 2u);
}

TEST(Misbehavior, SpoofingVehicleDetectedEndToEnd) {
  // A vehicle signs valid BSMs (good cert) but lies about position wildly:
  // crypto passes, plausibility catches it.
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto victim_batch = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(),
                                               SimTime::from_s(1000));
  VehicleNode victim(sched, medium, "victim", {0, 0}, 0, 0, pki.trust,
                     std::move(victim_batch));
  const auto ghost = pki.make_entity("ghost", {Psid::kBsm});

  // Attacker broadcasts teleporting ghost BSMs every 100 ms.
  struct Attacker : V2xRadio {
    using V2xRadio::V2xRadio;
    Position position() const override { return {10, 10}; }
    void on_spdu(const Spdu&, SimTime) override {}
  } attacker("attacker");
  medium.attach(&attacker);

  sim::PeriodicTask task(
      sched, SimTime::from_ms(100),
      [&] {
        // Teleports 500 m back and forth every 100 ms — inside the relevance
        // radius so only plausibility can catch it.
        static bool flip = false;
        flip = !flip;
        Bsm bsm;
        bsm.temp_id = 0x66666666;
        bsm.pos = {flip ? 100.0 : 600.0, 0};
        bsm.speed_mps = 25;
        bsm.generated = sched.now();
        medium.broadcast(&attacker,
                         Spdu::sign(Psid::kBsm, sched.now(), bsm.serialize(),
                                    ghost.cert, ghost.key));
      },
      SimTime::zero());
  sched.run_until(SimTime::from_s(1));
  task.stop();
  sched.run();
  // First ghost BSM may pass (no history), subsequent ones are flagged.
  EXPECT_GE(victim.stats().misbehavior_flags, 5u);
}

TEST(Rsu, VerifiesAndAlerts) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  const auto rsu_id = pki.make_entity("rsu-1", {Psid::kRoadsideAlert});
  RsuNode rsu(sched, medium, "rsu-1", {0, 0}, pki.trust, rsu_id.cert, rsu_id.key);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(),
                                        SimTime::from_s(1000));
  VehicleNode v(sched, medium, "v", {100, 0}, 0, 0, pki.trust, std::move(batch));
  v.start();
  sched.run_until(SimTime::from_s(1));
  v.stop();
  sched.run();
  EXPECT_GT(rsu.received(), 5u);
  EXPECT_EQ(rsu.received(), rsu.verified());

  rsu.broadcast_alert(Bytes{0x01});
  sched.run();
  // Alert is not a BSM; vehicle verifies it but sink is not called.
  EXPECT_GE(v.stats().verified_ok, 1u);
}

TEST(Adversary, LinksWithoutRotation) {
  // One vehicle, no rotation: a single chain containing one temp id.
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched, 10000.0);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(),
                                        SimTime::from_s(1000));
  VehicleNode v(sched, medium, "v", {0, 0}, 20, 0, pki.trust, std::move(batch));
  TrackingAdversary adv("adv", {0, 0}, SimTime::from_s(5), 100.0);
  medium.attach(&adv);
  v.start();
  sched.run_until(SimTime::from_s(5));
  v.stop();
  sched.run();
  EXPECT_GT(adv.observed(), 40u);
  const auto chains = adv.link_chains();
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].size(), 1u);
}

TEST(Adversary, LinksAcrossSingleRotation) {
  // One vehicle rotating once: adversary should link both pseudonyms into a
  // single chain by kinematic continuity.
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched, 10000.0);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 2, SimTime::zero(),
                                        SimTime::from_s(10));
  PseudonymPolicy policy;
  policy.rotation_period = SimTime::from_s(10);
  VehicleNode v(sched, medium, "v", {0, 0}, 20, 0, pki.trust, std::move(batch),
                policy);
  TrackingAdversary adv("adv", {0, 0}, SimTime::from_s(5), 100.0);
  medium.attach(&adv);
  v.start();
  sched.run_until(SimTime::from_s(20));
  v.stop();
  sched.run();
  const auto chains = adv.link_chains();
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].size(), 2u);  // both pseudonyms linked: privacy lost
}

TEST(Cert, ChainCacheHitsOnRepeatValidation) {
  Pki pki;
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kOk);
  const std::uint64_t h0 = pki.trust.cache_hits();
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(2), Psid::kBsm),
            TrustStore::Result::kOk);
  EXPECT_GT(pki.trust.cache_hits(), h0);
}

TEST(Cert, ChainCacheBoundedUnderPseudonymChurn) {
  // Regression: chain_cache_ was an unbounded std::map keyed by cert id, so
  // a fleet rotating pseudonyms grew the TrustStore without limit. With an
  // LRU bound the cache must stay at capacity and evict, while verdicts stay
  // correct for both resident and evicted certs.
  Pki pki;
  pki.trust.set_chain_cache_capacity(8);
  std::vector<Pki::Entity> certs;
  for (int i = 0; i < 64; ++i) {
    certs.push_back(pki.make_entity("p" + std::to_string(i), {Psid::kBsm}));
  }
  for (const auto& e : certs) {
    EXPECT_EQ(pki.trust.validate(e.cert, SimTime::from_s(1), Psid::kBsm),
              TrustStore::Result::kOk);
  }
  EXPECT_LE(pki.trust.chain_cache_size(), 8u);
  // 64 leaf certs + intermediates through an 8-entry cache must evict.
  EXPECT_GT(pki.trust.cache_evictions(), 0u);
  // An evicted cert re-validates correctly (cache miss, full chain walk).
  EXPECT_EQ(pki.trust.validate(certs[0].cert, SimTime::from_s(2), Psid::kBsm),
            TrustStore::Result::kOk);
}

TEST(Opportunistic, AdmitsProvisionallyAndConfirmsHonestTraffic) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto b1 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  auto b2 = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  VehicleNode a(sched, medium, "a", {0, 0}, 14.0, 0, pki.trust, std::move(b1));
  VehicleNode b(sched, medium, "b", {50, 0}, -14.0, 0, pki.trust, std::move(b2));
  DeferredSpduVerifier verifier(sched);
  b.enable_opportunistic(verifier);
  ASSERT_TRUE(b.opportunistic());
  int sink_calls = 0;
  b.set_bsm_sink([&](const Bsm&, const Spdu&, SimTime) { ++sink_calls; });

  verifier.start();
  a.start();
  b.start();
  sched.run_until(SimTime::from_s(2));
  a.stop();
  b.stop();
  // Drain in-flight radio deliveries before the verifier's final flush.
  sched.run_until(SimTime::from_ms(2100));
  verifier.stop();  // drains: nothing may stay provisionally trusted
  sched.run();

  EXPECT_GT(b.stats().admitted_provisional, 15u);
  EXPECT_EQ(b.stats().revoked_late, 0u);
  EXPECT_GT(b.stats().verified_ok, 15u);
  EXPECT_GT(sink_calls, 15);  // the sink fired at admit time
  EXPECT_EQ(verifier.revoked(), 0u);
  EXPECT_EQ(verifier.confirmed(), verifier.submitted());
  EXPECT_EQ(verifier.pending_count(), 0u);
  // The exposure window is real but bounded by the flush period (10 ms).
  ASSERT_GT(b.stats().exposure_window_us.count(), 0u);
  EXPECT_LE(b.stats().exposure_window_us.max(), 10001.0);
}

/// Radio at (10, 0) that only transmits.
struct Injector : V2xRadio {
  Injector() : V2xRadio("inj") {}
  Position position() const override { return {10, 0}; }
  void on_spdu(const Spdu&, SimTime) override {}
};

/// A plausible BSM (temp id 999, at the Injector) under a valid certificate,
/// with a forged signature.
Spdu forged_bsm(Pki& pki, SimTime now) {
  const auto ent = pki.make_entity("mallory", {Psid::kBsm});
  Bsm fake;
  fake.temp_id = 999;
  fake.pos = {10, 0};
  fake.speed_mps = 10.0;
  fake.generated = now;
  Spdu msg = Spdu::sign(Psid::kBsm, now, fake.serialize(), ent.cert, ent.key);
  msg.signature.s = crypto::U256::from_u64(5);  // forge
  return msg;
}

TEST(Vehicle, BoundNodeTracesForgedSpduAsVerifyFail) {
  // Why was this BSM dropped? A node bound to a shared plane records the
  // rejection on the shared bus, with the verify status as detail.
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  sim::Telemetry t;
  VehicleNode b(sched, medium, "b", {50, 0}, 0, 0, pki.trust, std::move(batch),
                {}, &t);
  Injector inj;
  medium.attach(&inj);

  sched.run_until(SimTime::from_ms(5));
  medium.broadcast(&inj, forged_bsm(pki, sched.now()));
  sched.run();

  EXPECT_EQ(b.stats().rejected.at(VerifyStatus::kBadSignature), 1u);
  EXPECT_EQ(b.stats().verified_ok, 0u);
  ASSERT_EQ(t.bus->count("v2x.b", "verify_fail"), 1u);
  const int status = static_cast<int>(VerifyStatus::kBadSignature);
  EXPECT_EQ(t.bus->find_first("v2x.b", "verify_fail")->detail,
            "status=" + std::to_string(status));
}

TEST(Vehicle, NodeBuiltOnAPlaneTracesFromItsFirstBsm) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  sim::Telemetry t;
  VehicleNode a(sched, medium, "a", {0, 0}, 0, 0, pki.trust, std::move(batch),
                {}, &t);
  a.start();
  sched.run_until(SimTime::from_ms(250));
  a.stop();
  EXPECT_EQ(a.stats().bsm_sent, 3u);
  EXPECT_EQ(t.bus->count("v2x.a", "bsm_tx"), 3u);
  ASSERT_NE(t.bus->find_first("v2x.a", "bsm_tx"), nullptr);
  EXPECT_EQ(t.bus->find_first("v2x.a", "bsm_tx")->at, SimTime::zero());
  // The node's verify engine counts onto the same plane.
  EXPECT_NE(t.metrics->find_counter("crypto.verify.calls"), nullptr);
}

TEST(Opportunistic, RevokesForgedSignatureAfterActingOnIt) {
  sim::Scheduler sched;
  Pki pki;
  V2xMedium medium(sched);
  auto batch = pki.pca.issue_pseudonyms(pki.rng, 1, SimTime::zero(), SimTime::from_s(1000));
  VehicleNode b(sched, medium, "b", {50, 0}, 0, 0, pki.trust, std::move(batch));
  DeferredSpduVerifier verifier(sched);
  b.enable_opportunistic(verifier);
  int sink_calls = 0;
  b.set_bsm_sink([&](const Bsm&, const Spdu&, SimTime) { ++sink_calls; });
  std::uint32_t revoked_tid = 0;
  SimTime revoked_at;
  b.set_revoke_sink([&](std::uint32_t tid, SimTime, SimTime at) {
    revoked_tid = tid;
    revoked_at = at;
  });

  Injector inj;
  medium.attach(&inj);

  verifier.start();
  sched.run_until(SimTime::from_ms(5));
  // Valid certificate, fresh timestamp, plausible position — every check
  // the receiver can afford at admit time passes. Only the signature is
  // forged, and that check has been deferred.
  medium.broadcast(&inj, forged_bsm(pki, sched.now()));
  sched.run_until(SimTime::from_ms(50));
  verifier.stop();
  sched.run();

  EXPECT_EQ(b.stats().admitted_provisional, 1u);
  EXPECT_EQ(sink_calls, 1);  // the ADAS consumer acted on the forgery
  EXPECT_EQ(b.stats().revoked_late, 1u);
  EXPECT_EQ(b.stats().rejected.at(VerifyStatus::kBadSignature), 1u);
  EXPECT_EQ(revoked_tid, 999u);
  EXPECT_GT(revoked_at, SimTime::from_ms(5));
  EXPECT_EQ(verifier.revoked(), 1u);
}

TEST(Cert, ValidateRoutesThroughVerifyEngine) {
  Pki pki;
  crypto::VerifyEngine engine;
  pki.trust.set_verify_engine(&engine);
  const auto v = pki.make_entity("veh1", {Psid::kBsm});
  EXPECT_EQ(pki.trust.validate(v.cert, SimTime::from_s(1), Psid::kBsm),
            TrustStore::Result::kOk);
  EXPECT_GT(engine.calls(), 0u);
}

}  // namespace
}  // namespace aseck::v2x
