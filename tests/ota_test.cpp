// Tests for the Uptane-style OTA framework: metadata signing, repository
// publication, full/partial verification, attack resistance, installation.

#include <gtest/gtest.h>

#include "ota/client.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"

namespace aseck::ota {
namespace {

using util::Bytes;

struct OtaFixture {
  crypto::Drbg rng{777u};
  Repository director{rng, "director", SimTime::from_s(3600)};
  Repository images{rng, "image-repo", SimTime::from_s(3600)};
  Bytes fw_v2 = Bytes(2048, 0xF2);

  OtaFixture() {
    director.add_target("brake-fw", fw_v2, 2, "brake-hw");
    images.add_target("brake-fw", fw_v2, 2, "brake-hw");
    director.publish(SimTime::from_s(1));
    images.publish(SimTime::from_s(1));
  }

  FullVerificationClient make_client() {
    return FullVerificationClient("primary", director.trusted_root(),
                                  images.trusted_root());
  }

  FullVerificationClient::Outcome run_client(FullVerificationClient& c,
                                             SimTime now = SimTime::from_s(10)) {
    return c.fetch_and_verify(director.metadata(), images.metadata(), director,
                              images, "brake-fw", "brake-hw",
                              /*installed=*/1, now);
  }
};

TEST(OtaMeta, KeyIdDerivedFromKey) {
  crypto::Drbg rng(1u);
  const auto k1 = crypto::EcdsaPrivateKey::generate(rng);
  const auto k2 = crypto::EcdsaPrivateKey::generate(rng);
  EXPECT_EQ(key_id(k1.public_key()), key_id(k1.public_key()));
  EXPECT_NE(key_id_hex(key_id(k1.public_key())),
            key_id_hex(key_id(k2.public_key())));
}

TEST(OtaMeta, ThresholdVerification) {
  crypto::Drbg rng(2u);
  const auto k1 = crypto::EcdsaPrivateKey::generate(rng);
  const auto k2 = crypto::EcdsaPrivateKey::generate(rng);
  const auto rogue = crypto::EcdsaPrivateKey::generate(rng);
  const Bytes payload = util::from_string("metadata");

  RootMeta::RoleKeys rk;
  rk.threshold = 2;
  rk.key_ids = {key_id(k1.public_key()), key_id(k2.public_key())};
  std::map<std::string, crypto::EcdsaPublicKey> keys{
      {key_id_hex(rk.key_ids[0]), k1.public_key()},
      {key_id_hex(rk.key_ids[1]), k2.public_key()}};

  std::vector<Signature> sigs{sign_payload(k1, payload)};
  EXPECT_FALSE(verify_threshold(payload, sigs, rk, keys));  // 1 of 2
  sigs.push_back(sign_payload(k2, payload));
  EXPECT_TRUE(verify_threshold(payload, sigs, rk, keys));  // 2 of 2
  // Duplicate signatures from one key do not count twice.
  std::vector<Signature> dup{sign_payload(k1, payload), sign_payload(k1, payload)};
  EXPECT_FALSE(verify_threshold(payload, dup, rk, keys));
  // Unauthorized key does not count.
  std::vector<Signature> bad{sign_payload(k1, payload), sign_payload(rogue, payload)};
  EXPECT_FALSE(verify_threshold(payload, bad, rk, keys));
}

TEST(Ota, HappyPathUpdate) {
  OtaFixture f;
  auto client = f.make_client();
  const auto out = f.run_client(client);
  ASSERT_EQ(out.error, OtaError::kOk) << ota_error_name(out.error);
  EXPECT_EQ(out.target.version, 2u);
  EXPECT_EQ(out.image, f.fw_v2);
}

TEST(Ota, ExpiredMetadataRejected) {
  OtaFixture f;
  auto client = f.make_client();
  const auto out = f.run_client(client, SimTime::from_s(4000));
  EXPECT_EQ(out.error, OtaError::kTimestampExpired);
}

TEST(Ota, UnknownTargetAndHardwareMismatch) {
  OtaFixture f;
  auto client = f.make_client();
  auto out = client.fetch_and_verify(f.director.metadata(), f.images.metadata(),
                                     f.director, f.images, "missing-fw",
                                     "brake-hw", 1, SimTime::from_s(10));
  EXPECT_EQ(out.error, OtaError::kTargetUnknown);
  out = client.fetch_and_verify(f.director.metadata(), f.images.metadata(),
                                f.director, f.images, "brake-fw", "engine-hw",
                                1, SimTime::from_s(10));
  EXPECT_EQ(out.error, OtaError::kHardwareMismatch);
}

TEST(Ota, RollbackRejected) {
  OtaFixture f;
  auto client = f.make_client();
  const auto out = client.fetch_and_verify(
      f.director.metadata(), f.images.metadata(), f.director, f.images,
      "brake-fw", "brake-hw", /*installed=*/5, SimTime::from_s(10));
  EXPECT_EQ(out.error, OtaError::kImageRollback);
}

TEST(Ota, TamperedImageRejected) {
  // Man-in-the-middle swaps the downloadable image bytes; metadata in both
  // repos is untouched, so the hash check catches the swap.
  OtaFixture f;
  Bytes evil = f.fw_v2;
  evil[7] ^= 1;
  // Both repos agree on the *original* metadata; only the image repo's
  // stored bytes are swapped (storage/transport compromise, no keys).
  auto targets_backup = f.images.metadata().targets;
  auto snap_backup = f.images.metadata().snapshot;
  auto ts_backup = f.images.metadata().timestamp;
  f.images.add_target("brake-fw", evil, 2, "brake-hw");  // swaps bytes + meta
  f.images.mutable_bundle().targets = targets_backup;    // restore metadata
  f.images.mutable_bundle().snapshot = snap_backup;
  f.images.mutable_bundle().timestamp = ts_backup;

  auto client = f.make_client();
  const auto out = f.run_client(client);
  EXPECT_EQ(out.error, OtaError::kImageHashMismatch);
}

TEST(Ota, ImageHashMismatchDirect) {
  OtaFixture f;
  // Forge: metadata advertises fw_v2's hash, but the downloadable image is
  // corrupted. Achieve this by editing the published targets hash to a
  // different value than the stored bytes, then re-signing with the real
  // key (i.e. a repo bug / storage corruption, not a key compromise).
  auto& bundle = f.images.mutable_bundle();
  bundle.targets.body.targets["brake-fw"].sha256 = Bytes(32, 0xEE);
  f.images.sign_role(bundle.targets, Role::kTargets);
  bundle.snapshot.body.targets_version = bundle.targets.body.version;
  f.images.sign_role(bundle.snapshot, Role::kSnapshot);
  bundle.timestamp.body.snapshot_hash =
      crypto::sha256_bytes(bundle.snapshot.body.serialize());
  f.images.sign_role(bundle.timestamp, Role::kTimestamp);

  // Director still advertises the correct hash -> repos disagree.
  auto client = f.make_client();
  const auto out = f.run_client(client);
  EXPECT_EQ(out.error, OtaError::kReposDisagree);
}

TEST(Ota, MixAndMatchBlockedBySnapshot) {
  OtaFixture f;
  auto client = f.make_client();
  ASSERT_EQ(f.run_client(client).error, OtaError::kOk);
  // Attacker replays an old targets file with newer snapshot/timestamp.
  MetadataBundle forged = f.images.metadata();
  const auto old_targets = forged.targets;
  f.images.add_target("brake-fw", Bytes(2048, 0xF3), 3, "brake-hw");
  f.images.publish(SimTime::from_s(20));
  forged = f.images.metadata();
  forged.targets = old_targets;  // splice stale targets
  auto out = client.fetch_and_verify(f.director.metadata(), forged, f.director,
                                     f.images, "brake-fw", "brake-hw", 1,
                                     SimTime::from_s(30));
  EXPECT_EQ(out.error, OtaError::kTargetsVersionMismatch);
}

TEST(Ota, FreezeAttackDetectedByExpiry) {
  OtaFixture f;
  auto client = f.make_client();
  // Attacker withholds new metadata ("freeze"): the old bundle keeps
  // verifying until its timestamp expires — bounded staleness.
  ASSERT_EQ(f.run_client(client, SimTime::from_s(100)).error, OtaError::kOk);
  EXPECT_EQ(f.run_client(client, SimTime::from_s(3700)).error,
            OtaError::kTimestampExpired);
}

TEST(Ota, CompromisedDirectorTargetsAloneCannotForgeForFullVerification) {
  OtaFixture f;
  // Attacker steals the DIRECTOR targets key and forges a malicious image
  // entry. Full verification still requires the image repo to agree.
  const Bytes evil(2048, 0x66);
  auto& bundle = f.director.mutable_bundle();
  bundle.targets.body.targets["brake-fw"] =
      TargetInfo{crypto::sha256_bytes(evil), evil.size(), 3, "brake-hw"};
  f.director.sign_role(bundle.targets, Role::kTargets);
  bundle.snapshot.body.targets_version = bundle.targets.body.version;
  f.director.sign_role(bundle.snapshot, Role::kSnapshot);
  bundle.timestamp.body.snapshot_hash =
      crypto::sha256_bytes(bundle.snapshot.body.serialize());
  f.director.sign_role(bundle.timestamp, Role::kTimestamp);

  auto client = f.make_client();
  const auto out = f.run_client(client);
  EXPECT_EQ(out.error, OtaError::kReposDisagree);
}

TEST(Ota, WrongKeySignatureRejected) {
  OtaFixture f;
  // Attacker signs targets with a random key.
  crypto::Drbg rng(55u);
  const auto rogue = crypto::EcdsaPrivateKey::generate(rng);
  auto& bundle = f.director.mutable_bundle();
  bundle.targets.body.targets["brake-fw"].version = 9;
  bundle.targets.signatures = {
      sign_payload(rogue, bundle.targets.body.serialize())};
  auto client = f.make_client();
  const auto out = f.run_client(client);
  // Snapshot hash check fires first (targets changed without republish) or
  // signature check — either way the forgery fails.
  EXPECT_NE(out.error, OtaError::kOk);
}

TEST(Ota, KeyRotationAcceptedViaChainedRoot) {
  OtaFixture f;
  auto client = f.make_client();
  ASSERT_EQ(f.run_client(client).error, OtaError::kOk);
  f.director.rotate_key(f.rng, Role::kTargets, SimTime::from_s(50));
  EXPECT_EQ(f.run_client(client, SimTime::from_s(60)).error, OtaError::kOk);
  f.director.rotate_key(f.rng, Role::kRoot, SimTime::from_s(70));
  EXPECT_EQ(f.run_client(client, SimTime::from_s(80)).error, OtaError::kOk);
}

TEST(Ota, PartialVerificationAcceptsDirectorForgery) {
  // THE key asymmetry: a partial-verification secondary trusts the director
  // targets key alone, so a director-targets compromise defeats it, while
  // the full-verification primary catches the same forgery (test above).
  OtaFixture f;
  PartialVerificationClient secondary(
      "secondary", f.director.role_key(Role::kTargets).public_key());
  const Bytes evil(1024, 0x66);
  auto& bundle = f.director.mutable_bundle();
  bundle.targets.body.version += 1;
  bundle.targets.body.targets["brake-fw"] =
      TargetInfo{crypto::sha256_bytes(evil), evil.size(), 3, "brake-hw"};
  f.director.sign_role(bundle.targets, Role::kTargets);

  const auto out =
      secondary.verify(bundle.targets, "brake-fw", "brake-hw", 1,
                       SimTime::from_s(10));
  EXPECT_EQ(out.error, OtaError::kOk);  // forgery accepted: partial is weaker
  EXPECT_EQ(out.target.version, 3u);
}

TEST(Ota, PartialVerificationBasicChecks) {
  OtaFixture f;
  PartialVerificationClient secondary(
      "secondary", f.director.role_key(Role::kTargets).public_key());
  const auto& targets = f.director.metadata().targets;
  EXPECT_EQ(secondary.verify(targets, "brake-fw", "brake-hw", 1, SimTime::from_s(5))
                .error,
            OtaError::kOk);
  EXPECT_EQ(secondary.verify(targets, "brake-fw", "other-hw", 1, SimTime::from_s(5))
                .error,
            OtaError::kHardwareMismatch);
  EXPECT_EQ(secondary.verify(targets, "brake-fw", "brake-hw", 9, SimTime::from_s(5))
                .error,
            OtaError::kImageRollback);
  EXPECT_EQ(
      secondary.verify(targets, "brake-fw", "brake-hw", 1, SimTime::from_s(9999))
          .error,
      OtaError::kTargetsExpired);
  // Wrong key: a different repository's targets.
  PartialVerificationClient wrong(
      "wrong", f.images.role_key(Role::kSnapshot).public_key());
  EXPECT_EQ(wrong.verify(targets, "brake-fw", "brake-hw", 1, SimTime::from_s(5))
                .error,
            OtaError::kTargetsSignature);
}

TEST(Ota, InstallFlow) {
  ecu::Flash flash;
  flash.provision(ecu::FirmwareImage{"brake-fw", 1, Bytes(128, 1)});
  const Bytes img(256, 2);
  EXPECT_EQ(install_image(flash, "brake-fw", 2, img, [] { return true; }),
            InstallResult::kCommitted);
  EXPECT_EQ(flash.active()->version, 2u);
  EXPECT_EQ(flash.rollback_floor(), 2u);
  // Failed self-test reverts.
  EXPECT_EQ(install_image(flash, "brake-fw", 3, img, [] { return false; }),
            InstallResult::kRevertedSelfTest);
  EXPECT_EQ(flash.active()->version, 2u);
  // Downgrade rejected at stage time.
  EXPECT_EQ(install_image(flash, "brake-fw", 1, img, [] { return true; }),
            InstallResult::kStageRejected);
}

// A single power cut anywhere in install_image (ops 0-2 stage the image,
// 3 is the activation marker, 4 the commit marker) is reported as kPowerLoss,
// and kCommitted means v2 really is active.
TEST(Ota, InstallImageReportsEveryPowerCut) {
  for (int cut = 0; cut < 8; ++cut) {
    SCOPED_TRACE("cut at write op " + std::to_string(cut));
    sim::Scheduler sched;
    sim::FaultPlan plan(sched, 1);
    sim::FaultSpec spec;
    spec.target = "flash";
    spec.kind = sim::FaultKind::kPowerLoss;
    spec.probability = 0.0;
    spec.page_index = cut;
    plan.window(SimTime::zero(), SimTime::from_s(1), spec);
    sched.run_until(SimTime::from_ms(1));  // open the window
    ecu::Flash flash;
    flash.provision(ecu::FirmwareImage{"brake-fw", 1, Bytes(128, 1)});
    flash.set_fault_port(&plan.port("flash"));

    const InstallResult r =
        install_image(flash, "brake-fw", 2, Bytes(256, 2), [] { return true; });
    EXPECT_EQ(r == InstallResult::kPowerLoss, flash.lost_power());
    if (r == InstallResult::kCommitted) {
      ASSERT_NE(flash.active(), nullptr);
      EXPECT_EQ(flash.active()->version, 2u);
    }
    EXPECT_EQ(r, cut < 5 ? InstallResult::kPowerLoss
                         : InstallResult::kCommitted);
  }
}

}  // namespace
}  // namespace aseck::ota
