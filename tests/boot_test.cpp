// Measured boot chain: staged ROM -> SHE boot-MAC -> signed app slot,
// the CryptoService measurement gate, attestation evidence (frozen wire
// vector, forgery/truncation rejection), BootGuard escalation of a hung
// stage, and the thread-safety of a CryptoService shared with VerifyPool
// producers (the tsan job runs this binary).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/service.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_pool.hpp"
#include "ecu/boot.hpp"
#include "ecu/ecu.hpp"
#include "safety/bootguard.hpp"
#include "safety/supervisor.hpp"
#include "sim/scheduler.hpp"

namespace aseck::ecu {
namespace {

using crypto::Block;
using crypto::CryptoService;
using crypto::KeyHandle;
using crypto::KeyPolicy;
using crypto::ServiceStatus;
using util::Bytes;
using util::SimTime;

Block key_of(std::uint8_t fill) {
  Block k;
  k.fill(fill);
  return k;
}

SheKeyFlags mac_flags() {
  SheKeyFlags f;
  f.key_usage_mac = true;
  return f;
}

/// A fully-provisioned single ECU: SHE boot-MAC over the bootloader, one
/// signed app image, anchor + signature in the kvstore, sealed service with
/// an attestation key and one boot-protected SecOC-style MAC key.
struct BootBench {
  She she{Bytes(15, 0xA5), 42};
  Flash flash;
  CryptoService svc{"ecu-crypto"};
  KvStore kv;
  crypto::Drbg rng{7};
  crypto::EcdsaPrivateKey oem = crypto::EcdsaPrivateKey::generate(rng);
  Bytes bootloader = Bytes(256, 0x5A);
  FirmwareImage app{"app", 1, Bytes(2 * Flash::kPageSize, 0x01)};
  crypto::PartitionId part = 0;
  KeyHandle attest_key{};
  KeyHandle secoc_key{};

  explicit BootBench(bool sign_app = true) {
    she.provision_key(SheSlot::kBootMacKey, key_of(0xB0), mac_flags());
    EXPECT_EQ(she.autonomous_bootstrap(bootloader), SheError::kNoError);
    flash.provision(app);
    kv.mount();
    KvTransaction txn;
    txn.put(kKvAppAnchorKey, oem.public_key().to_bytes());
    if (sign_app) {
      txn.put(boot_sig_key(app.digest()),
              oem.sign_digest(app.digest()).to_bytes());
    }
    EXPECT_TRUE(kv.commit(txn));
    part = svc.register_partition("boot");
    KeyPolicy sign;
    sign.usage = crypto::kUsageSign;
    attest_key = svc.generate_ecdsa(part, rng, sign);
    KeyPolicy protected_mac;
    protected_mac.usage = crypto::kUsageMac;
    protected_mac.boot_protected = true;
    secoc_key = svc.import_mac(part, key_of(0x51), protected_mac);
    svc.seal();
  }

  BootChainConfig config() const {
    BootChainConfig cfg;
    cfg.bootloader = bootloader;
    cfg.rom_anchor = crypto::sha256(bootloader);
    cfg.recovery_image = FirmwareImage{"limp", 1, Bytes(64, 0xEE)};
    return cfg;
  }

  BootChain chain(const sim::Telemetry& t = {}) {
    BootChain c(she, flash, svc, &kv, config(), t);
    c.set_attestation_key(part, attest_key);
    return c;
  }

  crypto::EcdsaPublicKey attest_pub() const {
    crypto::EcdsaPublicKey pub;
    EXPECT_EQ(svc.export_public(attest_key, &pub), ServiceStatus::kOk);
    return pub;
  }
};

TEST(BootChain, NormalBootUnlocksBootProtectedKeys) {
  BootBench b;
  BootChain chain = b.chain();
  const BootChain::Report rep = chain.run();

  EXPECT_EQ(rep.mode, BootMode::kNormal);
  EXPECT_TRUE(rep.measured_ok);
  EXPECT_TRUE(rep.keys_unlocked);
  EXPECT_FALSE(rep.hung);
  EXPECT_EQ(rep.boot_count, 1u);
  ASSERT_EQ(rep.stages.size(), 3u);
  for (const auto& s : rep.stages) EXPECT_TRUE(s.passed);
  EXPECT_GT(rep.boot_us, 0.0);
  EXPECT_TRUE(rep.flash.bootable);
  EXPECT_TRUE(rep.kv.mounted);

  EXPECT_EQ(b.svc.state(), CryptoService::State::kOperational);
  Block tag;
  EXPECT_EQ(b.svc.mac(b.part, b.secoc_key, util::from_string("frame"), &tag),
            ServiceStatus::kOk);
}

TEST(BootChain, RunIsDeterministic) {
  BootBench a, b;
  const BootChain::Report ra = a.chain().run();
  const BootChain::Report rb = b.chain().run();
  EXPECT_EQ(ra.boot_us, rb.boot_us);
  EXPECT_EQ(ra.mode, rb.mode);
  EXPECT_EQ(ra.flash.scan_us, rb.flash.scan_us);
  EXPECT_EQ(ra.kv.scan_us, rb.kv.scan_us);
}

// Satellite regression: SHE must reject a zero-length bootloader loudly
// instead of happily CMACing nothing (a blank boot flash would "verify").
TEST(She, EmptyBootloaderIsRejectedLoudly) {
  She she(Bytes(15, 0xA5), 1);
  she.provision_key(SheSlot::kBootMacKey, key_of(0xB0), mac_flags());
  EXPECT_EQ(she.autonomous_bootstrap(Bytes{}), SheError::kSequenceError);

  Bytes fw(128, 0x11);
  ASSERT_EQ(she.autonomous_bootstrap(fw), SheError::kNoError);
  EXPECT_FALSE(she.secure_boot(Bytes{}));
  EXPECT_FALSE(she.boot_ok());
  EXPECT_EQ(she.last_boot_error(), SheError::kSequenceError);
  // A proper boot afterwards still works and clears the error.
  EXPECT_TRUE(she.secure_boot(fw));
  EXPECT_EQ(she.last_boot_error(), SheError::kNoError);
}

TEST(BootChain, BootMacMismatchContinuesButKeysStayLocked) {
  BootBench b;
  // Re-bootstrap the BOOT_MAC over a different image: the chain's ROM stage
  // still passes (digest anchor matches) but SHE's MAC check fails.
  ASSERT_EQ(b.she.autonomous_bootstrap(Bytes(256, 0x77)), SheError::kNoError);
  BootChain chain = b.chain();
  const BootChain::Report rep = chain.run();

  // SHE semantics: the MAC mismatch does NOT halt boot...
  EXPECT_EQ(rep.mode, BootMode::kNormal);
  EXPECT_FALSE(rep.hung);
  // ...but the measurement verdict fails and boot-protected keys stay dark.
  EXPECT_FALSE(rep.measured_ok);
  EXPECT_FALSE(rep.keys_unlocked);
  EXPECT_EQ(b.svc.state(), CryptoService::State::kFailedBoot);
  Block tag;
  EXPECT_EQ(b.svc.mac(b.part, b.secoc_key, util::from_string("frame"), &tag),
            ServiceStatus::kBootLocked);

  // Attestation still works (the attestation key is not boot-protected —
  // reporting the failed measurement is the point) and verifies.
  const Bytes nonce = util::from_string("challenge-1");
  const auto ev = chain.attest(nonce);
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->measured_ok);
  EXPECT_TRUE(verify_evidence(*ev, b.attest_pub(), nonce));
}

TEST(BootChain, UnsignedActiveImageFallsBackToSignedSlot) {
  BootBench b;
  // Stage and activate a v2 image that was never signed into the kvstore.
  const FirmwareImage v2{"app", 2, Bytes(Flash::kPageSize, 0x02)};
  ASSERT_TRUE(b.flash.stage(v2));
  ASSERT_TRUE(b.flash.activate());
  sim::Telemetry t;
  BootChain chain = b.chain(t);
  const BootChain::Report rep = chain.run();

  EXPECT_EQ(rep.mode, BootMode::kFallback);
  EXPECT_TRUE(rep.fallback_used);
  EXPECT_TRUE(rep.measured_ok);  // the slot we ended up in is fully verified
  EXPECT_TRUE(rep.keys_unlocked);
  ASSERT_NE(b.flash.active(), nullptr);
  EXPECT_EQ(b.flash.active()->version, 1u);
  // The shared plane records why the ECU runs the old slot.
  EXPECT_EQ(t.bus->count("boot", "fallback"), 1u);
}

TEST(BootChain, NoVerifiableImageLimpsHomeInRecovery) {
  BootBench b(/*sign_app=*/false);
  BootChain chain = b.chain();
  const BootChain::Report rep = chain.run();

  // Never bricked: no verifiable slot still yields a bootable mode.
  EXPECT_EQ(rep.mode, BootMode::kRecovery);
  EXPECT_TRUE(rep.recovery_used);
  EXPECT_FALSE(rep.measured_ok);
  EXPECT_FALSE(rep.keys_unlocked);
  EXPECT_EQ(b.svc.state(), CryptoService::State::kFailedBoot);
  // Recovery mode is attestable too — the fleet learns about the limp-home.
  const Bytes nonce = util::from_string("challenge-2");
  const auto ev = chain.attest(nonce);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->mode, static_cast<std::uint8_t>(BootMode::kRecovery));
  EXPECT_TRUE(verify_evidence(*ev, b.attest_pub(), nonce));
}

// Frozen wire vector: the exact byte layout of AttestationEvidence is a
// fleet-facing contract (verifiers parse it), so pin it to a hand-computed
// hex string and require the strict parse to round-trip byte-identically.
TEST(AttestationEvidence, FrozenWireVectorRoundTrips) {
  AttestationEvidence ev;
  ev.uid = {0xAA, 0xBB};
  ev.boot_count = 3;
  ev.mode = static_cast<std::uint8_t>(BootMode::kNormal);
  ev.measured_ok = true;
  ev.nonce = {0x01, 0x02};
  Measurement m;
  m.stage = BootStage::kApp;
  m.passed = true;
  m.digest.fill(0x22);
  ev.measurements.push_back(m);
  ev.pcr.fill(0x11);
  const auto sig = crypto::EcdsaSignature::from_bytes(Bytes(64, 0x33));
  ASSERT_TRUE(sig.has_value());
  ev.signature = *sig;

  std::string expect;
  expect += "41544556";            // magic "ATEV"
  expect += "01";                  // version
  expect += "02" "aabb";           // uid_len | uid
  expect += "00000003";            // boot_count be32
  expect += "01";                  // mode = kNormal
  expect += "01";                  // measured_ok
  expect += "0002" "0102";         // nonce_len be16 | nonce
  expect += "01";                  // n_measurements
  expect += "02" "01";             // stage = kApp | passed
  expect += std::string(64, '2');  // measurement digest, 32 x 0x22
  expect += std::string(64, '1');  // pcr, 32 x 0x11
  expect += std::string(128, '3'); // signature r||s, 64 x 0x33
  EXPECT_EQ(util::to_hex(ev.serialize()), expect);

  const auto back = AttestationEvidence::parse(util::from_hex(expect));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->uid, ev.uid);
  EXPECT_EQ(back->boot_count, ev.boot_count);
  EXPECT_EQ(back->mode, ev.mode);
  EXPECT_EQ(back->measured_ok, ev.measured_ok);
  EXPECT_EQ(back->nonce, ev.nonce);
  EXPECT_EQ(back->measurements, ev.measurements);
  EXPECT_EQ(back->pcr, ev.pcr);
  EXPECT_EQ(back->signature, ev.signature);
  EXPECT_EQ(util::to_hex(back->serialize()), expect);
}

TEST(AttestationEvidence, ForgedAndTruncatedBlobsAreRejected) {
  BootBench b;
  BootChain chain = b.chain();
  chain.run();
  const Bytes nonce = util::from_string("fresh-nonce");
  const auto ev = chain.attest(nonce);
  ASSERT_TRUE(ev.has_value());
  const crypto::EcdsaPublicKey pub = b.attest_pub();
  ASSERT_TRUE(verify_evidence(*ev, pub, nonce));

  // Stale/wrong nonce.
  EXPECT_FALSE(verify_evidence(*ev, pub, util::from_string("old-nonce")));
  // Lying about the verdict breaks log consistency.
  AttestationEvidence forged = *ev;
  forged.measured_ok = !forged.measured_ok;
  EXPECT_FALSE(verify_evidence(forged, pub, nonce));
  // Flipping one measurement verdict breaks the PCR replay.
  forged = *ev;
  ASSERT_FALSE(forged.measurements.empty());
  forged.measurements[0].passed = !forged.measurements[0].passed;
  EXPECT_FALSE(verify_evidence(forged, pub, nonce));
  // A doctored PCR fails replay.
  forged = *ev;
  forged.pcr[0] ^= 0x01;
  EXPECT_FALSE(verify_evidence(forged, pub, nonce));
  // Dropping the log entirely cannot claim measured_ok.
  forged = *ev;
  forged.measurements.clear();
  EXPECT_FALSE(verify_evidence(forged, pub, nonce));
  // Signature bit-flip fails ECDSA.
  const Bytes blob = ev->serialize();
  Bytes bad_sig = blob;
  bad_sig[bad_sig.size() - 1] ^= 0x01;
  const auto parsed = AttestationEvidence::parse(bad_sig);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(verify_evidence(*parsed, pub, nonce));

  // Every strict prefix fails to parse, as does one trailing byte.
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(
        AttestationEvidence::parse(util::BytesView(blob.data(), n)).has_value())
        << "prefix length " << n;
  }
  Bytes extended = blob;
  extended.push_back(0x00);
  EXPECT_FALSE(AttestationEvidence::parse(extended).has_value());
}

TEST(BootGuard, HungStageEscalatesToSupervisedReboot) {
  sim::Scheduler sched;
  safety::HealthSupervisor sup(sched, "wdgm");
  BootBench b;
  BootChain chain = b.chain();
  int hangs = 1;
  chain.set_stage_hook([&](BootStage, int) {
    if (hangs > 0) {
      --hangs;
      return true;
    }
    return false;
  });

  // First power-on wedges in ROM: no verdict, service stays sealed.
  const BootChain::Report rep = chain.run();
  EXPECT_TRUE(rep.hung);
  EXPECT_EQ(rep.hung_stage, BootStage::kRom);
  EXPECT_FALSE(rep.keys_unlocked);
  EXPECT_EQ(b.svc.state(), CryptoService::State::kSealed);

  safety::BootGuard guard(sched, sup, chain, "boot-chain",
                          SimTime::from_ms(10));
  guard.start();
  sched.run_until(SimTime::from_s(2));

  // The silent heartbeat expired the entity; the reset handler re-ran the
  // chain, which now completes and unlocks the keys.
  EXPECT_GE(guard.reboots(), 1u);
  EXPECT_GE(guard.reboots_recovered(), 1u);
  EXPECT_FALSE(chain.hung());
  EXPECT_TRUE(chain.last().measured_ok);
  EXPECT_EQ(b.svc.state(), CryptoService::State::kOperational);
}

TEST(Ecu, InstalledBootChainGatesOperationalState) {
  sim::Scheduler sched;
  Ecu ecu(sched, "brake", 1);
  ecu.provision(FirmwareImage{"brake-fw", 1, Bytes(1024, 0x10)}, key_of(0x01),
                key_of(0xB0), key_of(0x51));
  const Bytes& code = ecu.flash().active()->code;

  // Provision the chain's trust material through the ECU's own kvstore.
  crypto::Drbg rng(11);
  const auto oem = crypto::EcdsaPrivateKey::generate(rng);
  ecu.kvstore().mount();
  KvTransaction txn;
  txn.put(kKvAppAnchorKey, oem.public_key().to_bytes());
  txn.put(boot_sig_key(ecu.flash().active()->digest()),
          oem.sign_digest(ecu.flash().active()->digest()).to_bytes());
  ASSERT_TRUE(ecu.kvstore().commit(txn));
  ecu.crypto_service().seal();

  BootChainConfig cfg;
  cfg.bootloader = code;
  cfg.rom_anchor = crypto::sha256(code);
  ecu.install_boot_chain(cfg);
  EXPECT_EQ(ecu.boot(), EcuState::kOperational);
  EXPECT_EQ(ecu.crypto_service().state(), CryptoService::State::kOperational);

  // Tamper with the stored boot MAC: the next measured boot degrades.
  ASSERT_EQ(ecu.she().autonomous_bootstrap(Bytes(64, 0x99)),
            SheError::kNoError);
  EXPECT_EQ(ecu.boot(), EcuState::kDegraded);
  EXPECT_EQ(ecu.crypto_service().state(), CryptoService::State::kFailedBoot);
}

// The tsan target: N producer threads sign through ONE shared CryptoService
// and enqueue into VerifyPool's per-producer lanes; flush() then verifies on
// worker threads. Any missing lock in the service shows up here.
TEST(CryptoServiceThreads, SharedServiceFeedsVerifyPoolRaceFree) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 16;

  CryptoService svc("shared-hsm");
  const crypto::PartitionId part = svc.register_partition("app");
  crypto::Drbg rng(3);
  KeyPolicy sign;
  sign.usage = crypto::kUsageSign;
  const KeyHandle key = svc.generate_ecdsa(part, rng, sign);
  crypto::EcdsaPublicKey pub;
  ASSERT_EQ(svc.export_public(key, &pub), ServiceStatus::kOk);
  svc.seal();
  svc.on_measurement(true);

  crypto::VerifyPoolConfig cfg;
  cfg.threads = 2;
  cfg.producers = kProducers;
  crypto::VerifyPool pool(cfg);

  // Preallocate stable storage for the jobs' pointers before any thread runs.
  std::vector<std::vector<crypto::Digest>> digests(kProducers);
  std::vector<std::vector<crypto::EcdsaSignature>> sigs(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    sigs[p].resize(kPerProducer);
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      digests[p].push_back(crypto::sha256(util::from_string(
          "msg-" + std::to_string(p) + "-" + std::to_string(i))));
    }
  }

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(svc.sign_digest(part, key, digests[p][i], &sigs[p][i]),
                  ServiceStatus::kOk);
        crypto::VerifyJob job;
        job.pub = &pub;
        job.digest = digests[p][i];
        job.sig = &sigs[p][i];
        job.tag = p * kPerProducer + i;
        pool.queue().push(p, job);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto outcomes = pool.flush();
  ASSERT_EQ(outcomes.size(), kProducers * kPerProducer);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << "tag " << o.tag;
  EXPECT_EQ(svc.ops(), kProducers * kPerProducer + 1);  // signs + export
}

}  // namespace
}  // namespace aseck::ecu
