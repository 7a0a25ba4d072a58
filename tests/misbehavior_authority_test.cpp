// Tests for the misbehavior authority: report validation, threshold
// revocation, defamation resistance, and the closed detection->revocation
// loop.

#include <gtest/gtest.h>

#include "v2x/misbehavior_authority.hpp"
#include "v2x/net.hpp"

namespace aseck::v2x {
namespace {

struct Fixture {
  crypto::Drbg rng{2468u};
  CertificateAuthority root =
      CertificateAuthority::make_root(rng, "root", SimTime::from_s(1 << 20));
  CertificateAuthority pca =
      CertificateAuthority::make_sub(rng, "pca", root, SimTime::from_s(1 << 20));
  Crl crl;
  TrustStore trust;
  MisbehaviorAuthority authority{crl, trust};

  struct Entity {
    crypto::EcdsaPrivateKey key;
    Certificate cert;
  };
  std::vector<Entity> reporters;
  Entity accused = make_entity("evil");

  Fixture() {
    trust.add_root(root.certificate());
    trust.add_intermediate(pca.certificate());
    trust.set_crl(&crl);
    for (int i = 0; i < 5; ++i) {
      reporters.push_back(make_entity("rep" + std::to_string(i)));
    }
  }

  Entity make_entity(const std::string& name) {
    auto key = crypto::EcdsaPrivateKey::generate(rng);
    auto cert = pca.issue(name, key.public_key(), {Psid::kBsm},
                          SimTime::zero(), SimTime::from_s(1 << 20));
    return Entity{std::move(key), std::move(cert)};
  }

  Spdu make_report(const Entity& reporter, std::uint32_t reporter_id,
                   SimTime at) {
    MisbehaviorReport r;
    r.accused = accused.cert.id();
    r.reason = "position_jump";
    r.reporter_temp_id = reporter_id;
    return Spdu::sign(Psid::kMisbehaviorReport, at, r.serialize(),
                      reporter.cert, reporter.key);
  }
};

TEST(MisbehaviorReport, SerializeParseRoundTrip) {
  MisbehaviorReport r;
  r.accused.fill(0xAB);
  r.reason = "implausible_speed";
  r.reporter_temp_id = 0xDEADBEEF;
  const auto p = MisbehaviorReport::parse(r.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->accused, r.accused);
  EXPECT_EQ(p->reason, r.reason);
  EXPECT_EQ(p->reporter_temp_id, r.reporter_temp_id);
  EXPECT_FALSE(MisbehaviorReport::parse(util::Bytes(5)).has_value());
}

TEST(Authority, ThresholdRevocation) {
  Fixture f;
  const SimTime t = SimTime::from_s(10);
  EXPECT_EQ(f.authority.submit(f.make_report(f.reporters[0], 100, t), t),
            MisbehaviorAuthority::Outcome::kAccepted);
  EXPECT_EQ(f.authority.submit(f.make_report(f.reporters[1], 101, t), t),
            MisbehaviorAuthority::Outcome::kAccepted);
  EXPECT_FALSE(f.crl.is_revoked(f.accused.cert.id()));
  EXPECT_EQ(f.authority.distinct_reporters(f.accused.cert.id()), 2u);
  // Third distinct reporter crosses the threshold.
  EXPECT_EQ(f.authority.submit(f.make_report(f.reporters[2], 102, t), t),
            MisbehaviorAuthority::Outcome::kAcceptedAndRevoked);
  EXPECT_TRUE(f.crl.is_revoked(f.accused.cert.id()));
  EXPECT_EQ(f.authority.revocations(), 1u);
  // Further reports are moot.
  EXPECT_EQ(f.authority.submit(f.make_report(f.reporters[3], 103, t), t),
            MisbehaviorAuthority::Outcome::kAlreadyRevoked);
  // The revoked cert no longer validates anywhere.
  EXPECT_EQ(f.trust.validate(f.accused.cert, t, Psid::kBsm),
            TrustStore::Result::kRevoked);
}

TEST(Authority, DefamationResistance) {
  // One attacker spamming reports under one pseudonym cannot revoke a
  // victim: duplicate reporter ids do not count twice.
  Fixture f;
  const SimTime t = SimTime::from_s(10);
  EXPECT_EQ(f.authority.submit(f.make_report(f.reporters[0], 100, t), t),
            MisbehaviorAuthority::Outcome::kAccepted);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(f.authority.submit(f.make_report(f.reporters[0], 100, t), t),
              MisbehaviorAuthority::Outcome::kDuplicateReporter);
  }
  EXPECT_FALSE(f.crl.is_revoked(f.accused.cert.id()));
  EXPECT_EQ(f.authority.distinct_reporters(f.accused.cert.id()), 1u);
}

TEST(Authority, SybilCaveat) {
  // A lone attacker WITH multiple pseudonyms can still cross the threshold
  // (Sybil) — the residual risk pseudonymity creates for revocation systems;
  // we assert the behavior so the limitation is explicit.
  Fixture f;
  const SimTime t = SimTime::from_s(10);
  f.authority.submit(f.make_report(f.reporters[0], 200, t), t);
  f.authority.submit(f.make_report(f.reporters[0], 201, t), t);  // same cert,
  const auto out = f.authority.submit(f.make_report(f.reporters[0], 202, t), t);
  EXPECT_EQ(out, MisbehaviorAuthority::Outcome::kAcceptedAndRevoked);
}

TEST(Authority, RejectsForgedAndStaleReports) {
  Fixture f;
  const SimTime t = SimTime::from_s(100);
  // Tampered payload.
  Spdu forged = f.make_report(f.reporters[0], 100, t);
  forged.payload[9] ^= 1;
  EXPECT_EQ(f.authority.submit(forged, t),
            MisbehaviorAuthority::Outcome::kInvalidEnvelope);
  // Wrong PSID.
  Spdu wrong_psid = f.make_report(f.reporters[0], 100, t);
  wrong_psid.psid = Psid::kBsm;
  EXPECT_EQ(f.authority.submit(wrong_psid, t),
            MisbehaviorAuthority::Outcome::kInvalidEnvelope);
  // Stale report (> 60 s old).
  const Spdu stale = f.make_report(f.reporters[0], 100, SimTime::from_s(10));
  EXPECT_EQ(f.authority.submit(stale, SimTime::from_s(100)),
            MisbehaviorAuthority::Outcome::kInvalidEnvelope);
  // Unknown issuer.
  crypto::Drbg rogue_rng(13u);
  auto rogue_ca = CertificateAuthority::make_root(rogue_rng, "rogue",
                                                  SimTime::from_s(1 << 20));
  auto rogue_key = crypto::EcdsaPrivateKey::generate(rogue_rng);
  auto rogue_cert = rogue_ca.issue("r", rogue_key.public_key(), {Psid::kBsm},
                                   SimTime::zero(), SimTime::from_s(1 << 20));
  MisbehaviorReport r;
  r.accused = f.accused.cert.id();
  r.reporter_temp_id = 300;
  const Spdu rogue_report = Spdu::sign(Psid::kMisbehaviorReport, t,
                                       r.serialize(), rogue_cert, rogue_key);
  EXPECT_EQ(f.authority.submit(rogue_report, t),
            MisbehaviorAuthority::Outcome::kInvalidEnvelope);
  EXPECT_EQ(f.authority.distinct_reporters(f.accused.cert.id()), 0u);
}

TEST(Authority, EndToEndDetectionToRevocation) {
  // Vehicles flag a ghost via their misbehavior detectors and report; after
  // the third distinct reporter the ghost's cert is dead fleet-wide.
  Fixture f;
  sim::Scheduler sched;
  V2xMedium medium(sched, 1000.0);
  std::vector<std::unique_ptr<VehicleNode>> cars;
  for (int i = 0; i < 3; ++i) {
    auto batch = f.pca.issue_pseudonyms(f.rng, 1, SimTime::zero(),
                                        SimTime::from_s(1 << 20));
    cars.push_back(std::make_unique<VehicleNode>(
        sched, medium, "car" + std::to_string(i),
        Position{static_cast<double>(10 * i), 0}, 0.0, 0.0, f.trust,
        std::move(batch)));
  }
  // Ghost broadcasts implausible BSMs.
  struct GhostRadio : V2xRadio {
    using V2xRadio::V2xRadio;
    Position position() const override { return {0, 5}; }
    void on_spdu(const Spdu&, SimTime) override {}
  } ghost_radio("ghost");
  medium.attach(&ghost_radio);
  double x = 0;
  sim::PeriodicTask ghost_task(
      sched, SimTime::from_ms(100),
      [&] {
        x = (x == 100) ? 500 : 100;  // teleport within relevance radius
        Bsm bsm;
        bsm.temp_id = 0x6e05;
        bsm.pos = {x, 0};
        bsm.speed_mps = 20;
        bsm.generated = sched.now();
        medium.broadcast(&ghost_radio,
                         Spdu::sign(Psid::kBsm, sched.now(), bsm.serialize(),
                                    f.accused.cert, f.accused.key));
      },
      SimTime::zero());
  sched.run_until(SimTime::from_s(2));
  ghost_task.stop();
  sched.run();

  // Each car that flagged misbehavior files one report.
  std::size_t filed = 0;
  for (const auto& car : cars) {
    if (car->stats().misbehavior_flags == 0) continue;
    MisbehaviorReport r;
    r.accused = f.accused.cert.id();
    r.reason = "position_jump";
    r.reporter_temp_id = car->current_temp_id();
    // Each vehicle signs with its own pseudonym (index `filed`).
    const Spdu env = Spdu::sign(Psid::kMisbehaviorReport, sched.now(),
                                r.serialize(), f.reporters[filed].cert,
                                f.reporters[filed].key);
    f.authority.submit(env, sched.now());
    ++filed;
  }
  EXPECT_GE(filed, 3u);
  EXPECT_TRUE(f.crl.is_revoked(f.accused.cert.id()));
}

}  // namespace
}  // namespace aseck::v2x
