// Tests for the SHE module, flash A/B model, and the ECU (secure boot,
// tamper, partitions, SecOC messaging over CAN).

#include <gtest/gtest.h>

#include <limits>

#include "ecu/ecu.hpp"
#include "ecu/flash.hpp"
#include "ecu/she.hpp"

namespace aseck::ecu {
namespace {

using crypto::Block;
using util::Bytes;

Block key_of(std::uint8_t fill) {
  Block k;
  k.fill(fill);
  return k;
}

util::Bytes test_uid() { return Bytes(15, 0xA5); }

She make_she() { return She(test_uid(), 42); }

SheKeyFlags mac_flags() {
  SheKeyFlags f;
  f.key_usage_mac = true;
  return f;
}

TEST(She, RejectsBadUid) {
  EXPECT_THROW(She(Bytes(14), 1), std::invalid_argument);
  EXPECT_THROW(She(Bytes(16), 1), std::invalid_argument);
}

TEST(She, ProvisionAndUseEncKey) {
  She she = make_she();
  EXPECT_FALSE(she.has_key(SheSlot::kKey1));
  EXPECT_EQ(she.provision_key(SheSlot::kKey1, key_of(1), {}), SheError::kNoError);
  EXPECT_TRUE(she.has_key(SheSlot::kKey1));
  Block pt = key_of(0x77), ct, back;
  EXPECT_EQ(she.enc_ecb(SheSlot::kKey1, pt, &ct), SheError::kNoError);
  EXPECT_EQ(she.dec_ecb(SheSlot::kKey1, ct, &back), SheError::kNoError);
  EXPECT_EQ(back, pt);
  EXPECT_NE(ct, pt);
}

TEST(She, KeyUsageEnforced) {
  She she = make_she();
  she.provision_key(SheSlot::kKey1, key_of(1), mac_flags());
  Block out;
  EXPECT_EQ(she.enc_ecb(SheSlot::kKey1, key_of(0), &out), SheError::kKeyInvalid);
  EXPECT_EQ(she.generate_mac(SheSlot::kKey1, Bytes{1, 2, 3}, &out),
            SheError::kNoError);
  // Enc-only key cannot MAC.
  she.provision_key(SheSlot::kKey2, key_of(2), {});
  EXPECT_EQ(she.generate_mac(SheSlot::kKey2, Bytes{1}, &out),
            SheError::kKeyInvalid);
}

TEST(She, EmptySlotErrors) {
  She she = make_she();
  Block out;
  EXPECT_EQ(she.enc_ecb(SheSlot::kKey5, key_of(0), &out), SheError::kKeyEmpty);
  bool ok = false;
  EXPECT_EQ(she.verify_mac(SheSlot::kKey5, Bytes{}, Bytes(16), &ok),
            SheError::kKeyEmpty);
}

TEST(She, MacGenerateVerify) {
  She she = make_she();
  she.provision_key(SheSlot::kKey1, key_of(9), mac_flags());
  const Bytes msg{0xde, 0xad};
  Block mac;
  ASSERT_EQ(she.generate_mac(SheSlot::kKey1, msg, &mac), SheError::kNoError);
  bool ok = false;
  ASSERT_EQ(she.verify_mac(SheSlot::kKey1, msg,
                           util::BytesView(mac.data(), 16), &ok),
            SheError::kNoError);
  EXPECT_TRUE(ok);
  ASSERT_EQ(she.verify_mac(SheSlot::kKey1, Bytes{0xde, 0xae},
                           util::BytesView(mac.data(), 16), &ok),
            SheError::kNoError);
  EXPECT_FALSE(ok);
}

TEST(She, MemoryUpdateProtocolRoundTrip) {
  She she = make_she();
  const Block master = key_of(0x11);
  she.provision_key(SheSlot::kMasterEcuKey, master, {});
  const Block new_key = key_of(0x22);
  const auto msgs = She::build_update(test_uid(), SheSlot::kKey3,
                                      SheSlot::kMasterEcuKey, master, new_key,
                                      /*counter=*/1, mac_flags());
  SheError err;
  const auto proof = she.load_key(msgs, &err);
  ASSERT_TRUE(proof.has_value()) << static_cast<int>(err);
  EXPECT_TRUE(she.has_key(SheSlot::kKey3));
  EXPECT_EQ(she.counter(SheSlot::kKey3), 1u);
  EXPECT_TRUE(she.flags(SheSlot::kKey3).key_usage_mac);
  EXPECT_EQ(proof->m4.size(), 32u);
  EXPECT_EQ(proof->m5.size(), 16u);
  // The loaded key works.
  Block mac;
  EXPECT_EQ(she.generate_mac(SheSlot::kKey3, Bytes{1}, &mac), SheError::kNoError);
  Block expect = crypto::aes_cmac(util::BytesView(new_key.data(), 16), Bytes{1});
  EXPECT_EQ(mac, expect);
}

TEST(She, MemoryUpdateRejectsWrongAuthKey) {
  She she = make_she();
  she.provision_key(SheSlot::kMasterEcuKey, key_of(0x11), {});
  // Sender uses the wrong master key (attacker guessing).
  const auto msgs =
      She::build_update(test_uid(), SheSlot::kKey3, SheSlot::kMasterEcuKey,
                        key_of(0x99), key_of(0x22), 1, {});
  SheError err;
  EXPECT_FALSE(she.load_key(msgs, &err).has_value());
  EXPECT_EQ(err, SheError::kKeyUpdateError);
  EXPECT_FALSE(she.has_key(SheSlot::kKey3));
}

TEST(She, MemoryUpdateRejectsWrongUid) {
  She she = make_she();
  const Block master = key_of(0x11);
  she.provision_key(SheSlot::kMasterEcuKey, master, {});
  // Message built for a different vehicle's UID: must not load here. This is
  // the per-device key diversification the paper calls out as missing when
  // fleets share keys.
  const auto msgs = She::build_update(Bytes(15, 0x77), SheSlot::kKey3,
                                      SheSlot::kMasterEcuKey, master,
                                      key_of(0x22), 1, {});
  SheError err;
  EXPECT_FALSE(she.load_key(msgs, &err).has_value());
  EXPECT_EQ(err, SheError::kKeyUpdateError);
}

TEST(She, MemoryUpdateWildcardUid) {
  She she = make_she();
  const Block master = key_of(0x11);
  she.provision_key(SheSlot::kMasterEcuKey, master, {});
  // Wildcard (all-zero UID) fleet-wide update is accepted for a fresh slot...
  const auto msgs = She::build_update(Bytes(15, 0x00), SheSlot::kKey4,
                                      SheSlot::kMasterEcuKey, master,
                                      key_of(0x22), 1, {});
  EXPECT_TRUE(she.load_key(msgs).has_value());
  // ...but rejected once the slot sets wildcard_forbidden.
  SheKeyFlags wf;
  wf.wildcard_forbidden = true;
  const auto msgs2 = She::build_update(Bytes(15, 0x00), SheSlot::kKey4,
                                       SheSlot::kMasterEcuKey, master,
                                       key_of(0x23), 2, wf);
  EXPECT_TRUE(she.load_key(msgs2).has_value());
  const auto msgs3 = She::build_update(Bytes(15, 0x00), SheSlot::kKey4,
                                       SheSlot::kMasterEcuKey, master,
                                       key_of(0x24), 3, {});
  SheError err;
  EXPECT_FALSE(she.load_key(msgs3, &err).has_value());
  EXPECT_EQ(err, SheError::kKeyUpdateError);
}

TEST(She, RollbackProtectionByCounter) {
  She she = make_she();
  const Block master = key_of(0x11);
  she.provision_key(SheSlot::kMasterEcuKey, master, {});
  EXPECT_TRUE(she.load_key(She::build_update(test_uid(), SheSlot::kKey3,
                                             SheSlot::kMasterEcuKey, master,
                                             key_of(0x22), 5, {}))
                  .has_value());
  // Replaying an older (or equal) counter fails.
  SheError err;
  EXPECT_FALSE(she.load_key(She::build_update(test_uid(), SheSlot::kKey3,
                                              SheSlot::kMasterEcuKey, master,
                                              key_of(0x33), 5, {}),
                            &err)
                   .has_value());
  EXPECT_EQ(err, SheError::kKeyUpdateError);
  EXPECT_TRUE(she.load_key(She::build_update(test_uid(), SheSlot::kKey3,
                                             SheSlot::kMasterEcuKey, master,
                                             key_of(0x33), 6, {}))
                  .has_value());
}

TEST(She, WriteProtectionPermanent) {
  She she = make_she();
  const Block master = key_of(0x11);
  she.provision_key(SheSlot::kMasterEcuKey, master, {});
  SheKeyFlags wp;
  wp.write_protection = true;
  EXPECT_TRUE(she.load_key(She::build_update(test_uid(), SheSlot::kKey2,
                                             SheSlot::kMasterEcuKey, master,
                                             key_of(0x55), 1, wp))
                  .has_value());
  SheError err;
  EXPECT_FALSE(she.load_key(She::build_update(test_uid(), SheSlot::kKey2,
                                              SheSlot::kMasterEcuKey, master,
                                              key_of(0x66), 2, {}),
                            &err)
                   .has_value());
  EXPECT_EQ(err, SheError::kKeyWriteProtected);
  EXPECT_EQ(she.provision_key(SheSlot::kKey2, key_of(0x77), {}),
            SheError::kKeyWriteProtected);
}

TEST(She, SecretKeyNeverUpdatable) {
  EXPECT_THROW(She::build_update(test_uid(), SheSlot::kSecretKey,
                                 SheSlot::kMasterEcuKey, key_of(1), key_of(2), 1,
                                 {}),
               std::invalid_argument);
}

TEST(She, SecureBootFlow) {
  She she = make_she();
  she.provision_key(SheSlot::kBootMacKey, key_of(0xB0), mac_flags());
  const Bytes bootloader(1024, 0x5A);
  EXPECT_EQ(she.autonomous_bootstrap(bootloader), SheError::kNoError);
  EXPECT_TRUE(she.secure_boot(bootloader));
  EXPECT_TRUE(she.boot_ok());
  // Tampered bootloader fails.
  Bytes evil = bootloader;
  evil[100] ^= 1;
  EXPECT_FALSE(she.secure_boot(evil));
  EXPECT_FALSE(she.boot_ok());
}

TEST(She, BootProtectedKeyLockedUntilBootOk) {
  She she = make_she();
  she.provision_key(SheSlot::kBootMacKey, key_of(0xB0), mac_flags());
  SheKeyFlags bp = mac_flags();
  bp.boot_protection = true;
  she.provision_key(SheSlot::kKey1, key_of(0x01), bp);
  const Bytes fw(64, 1);
  she.autonomous_bootstrap(fw);
  Block mac;
  EXPECT_EQ(she.generate_mac(SheSlot::kKey1, Bytes{1}, &mac),
            SheError::kKeyNotAvailable);
  EXPECT_TRUE(she.secure_boot(fw));
  EXPECT_EQ(she.generate_mac(SheSlot::kKey1, Bytes{1}, &mac), SheError::kNoError);
}

TEST(She, DebuggerErasesProtectedKeys) {
  She she = make_she();
  SheKeyFlags dp;
  dp.debugger_protection = true;
  she.provision_key(SheSlot::kKey1, key_of(1), dp);
  she.provision_key(SheSlot::kKey2, key_of(2), {});
  she.attach_debugger();
  EXPECT_FALSE(she.has_key(SheSlot::kKey1));  // erased
  EXPECT_TRUE(she.has_key(SheSlot::kKey2));   // unprotected key survives
}

TEST(She, RamKeyPlainLoadAndUse) {
  She she = make_she();
  EXPECT_EQ(she.load_plain_key(key_of(0xAA)), SheError::kNoError);
  Block ct;
  EXPECT_EQ(she.enc_ecb(SheSlot::kRamKey, key_of(0), &ct), SheError::kNoError);
  Block mac;
  EXPECT_EQ(she.generate_mac(SheSlot::kRamKey, Bytes{1}, &mac), SheError::kNoError);
}

TEST(She, RndProducesVaryingBlocks) {
  She she = make_she();
  EXPECT_NE(she.rnd(), she.rnd());
  // Same seed -> same stream (deterministic simulation).
  She she2(test_uid(), 42);
  She she3(test_uid(), 42);
  EXPECT_EQ(she2.rnd(), she3.rnd());
}

TEST(She, LatencyModelMonotone) {
  EXPECT_GT(She::cmd_latency_us(256), She::cmd_latency_us(16));
  EXPECT_GT(She::cmd_latency_us(16), 0.0);
}

TEST(Flash, ProvisionStageActivate) {
  Flash flash;
  flash.provision(FirmwareImage{"fw", 1, Bytes(100, 1)});
  ASSERT_NE(flash.active(), nullptr);
  EXPECT_EQ(flash.active()->version, 1u);
  EXPECT_TRUE(flash.stage(FirmwareImage{"fw", 2, Bytes(100, 2)}));
  ASSERT_NE(flash.staged(), nullptr);
  EXPECT_EQ(flash.staged()->version, 2u);
  EXPECT_TRUE(flash.activate());
  EXPECT_EQ(flash.active()->version, 2u);
  EXPECT_EQ(flash.staged(), nullptr);
}

TEST(Flash, RollbackFloorBlocksDowngradeAfterCommit) {
  Flash flash;
  flash.provision(FirmwareImage{"fw", 5, Bytes(10, 1)});
  EXPECT_TRUE(flash.stage(FirmwareImage{"fw", 6, {}}));
  flash.activate();
  flash.commit();
  EXPECT_EQ(flash.rollback_floor(), 6u);
  EXPECT_FALSE(flash.stage(FirmwareImage{"fw", 5, {}}));  // downgrade
  EXPECT_FALSE(flash.revert());  // old v5 bank below floor
}

TEST(Flash, RevertBeforeCommitAllowed) {
  Flash flash;
  flash.provision(FirmwareImage{"fw", 5, Bytes(10, 1)});
  flash.stage(FirmwareImage{"fw", 6, {}});
  flash.activate();
  // Self-test failed before commit: we can fall back to v5.
  EXPECT_TRUE(flash.revert());
  EXPECT_EQ(flash.active()->version, 5u);
  EXPECT_EQ(flash.rollback_floor(), 5u);
}

TEST(Flash, ActivateWithoutStageFails) {
  Flash flash;
  flash.provision(FirmwareImage{"fw", 1, {}});
  EXPECT_FALSE(flash.activate());
}

TEST(Flash, DigestBindsNameVersionCode) {
  const FirmwareImage a{"fw", 1, Bytes{1, 2, 3}};
  FirmwareImage b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.version = 2;
  EXPECT_NE(a.digest(), b.digest());
  b = a;
  b.name = "fw2";
  EXPECT_NE(a.digest(), b.digest());
  b = a;
  b.code[0] ^= 1;
  EXPECT_NE(a.digest(), b.digest());
}

// ---------------------------------------------------------------- Ecu

Ecu make_provisioned_ecu(sim::Scheduler& sched, const std::string& name,
                         std::uint64_t seed) {
  Ecu ecu(sched, name, seed);
  ecu.provision(FirmwareImage{name + "-fw", 1, Bytes(256, 0x42)}, key_of(0x10),
                key_of(0x20), key_of(0x30));
  return ecu;
}

TEST(Ecu, SecureBootToOperational) {
  sim::Scheduler sched;
  Ecu ecu = make_provisioned_ecu(sched, "brake", 1);
  EXPECT_EQ(ecu.state(), EcuState::kOff);
  EXPECT_EQ(ecu.boot(), EcuState::kOperational);
  EXPECT_TRUE(ecu.she().boot_ok());
}

TEST(Ecu, TamperedFirmwareDegrades) {
  sim::Scheduler sched;
  Ecu ecu = make_provisioned_ecu(sched, "brake", 1);
  // Attacker modifies flash contents after boot-MAC provisioning.
  FirmwareImage evil{"brake-fw", 1, Bytes(256, 0x66)};
  ecu.flash().stage(evil);
  ecu.flash().activate();
  EXPECT_EQ(ecu.boot(), EcuState::kDegraded);
}

TEST(Ecu, TamperMonitorZeroizes) {
  sim::Scheduler sched;
  Ecu ecu = make_provisioned_ecu(sched, "brake", 1);
  ecu.boot();
  ecu.report_voltage(5.0);  // in range
  EXPECT_EQ(ecu.state(), EcuState::kOperational);
  ecu.report_voltage(7.2);  // glitch attack
  EXPECT_EQ(ecu.state(), EcuState::kDegraded);
  EXPECT_TRUE(ecu.tamper().tripped);
  EXPECT_FALSE(ecu.she().has_key(SheSlot::kKey1));  // zeroized

  // A NaN sample is outside every envelope: it must not fail open.
  Ecu nan_fed = make_provisioned_ecu(sched, "steer", 2);
  nan_fed.boot();
  nan_fed.report_voltage(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan_fed.state(), EcuState::kDegraded);
  EXPECT_TRUE(nan_fed.tamper().tripped);
  EXPECT_FALSE(nan_fed.she().has_key(SheSlot::kKey1));
}

TEST(Ecu, ClockTamper) {
  sim::Scheduler sched;
  Ecu ecu = make_provisioned_ecu(sched, "brake", 1);
  ecu.boot();
  ecu.report_clock(101.0);
  EXPECT_EQ(ecu.state(), EcuState::kOperational);
  ecu.report_clock(180.0);  // overclock glitch
  EXPECT_EQ(ecu.state(), EcuState::kDegraded);

  Ecu nan_fed = make_provisioned_ecu(sched, "steer", 2);
  nan_fed.boot();
  nan_fed.report_clock(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan_fed.state(), EcuState::kDegraded);
  EXPECT_FALSE(nan_fed.she().has_key(SheSlot::kKey1));
}

TEST(Ecu, PartitionIsolation) {
  sim::Scheduler sched;
  Ecu ecu = make_provisioned_ecu(sched, "infotainment", 1);
  const auto radio = ecu.add_partition("radio");
  const auto nav = ecu.add_partition("nav");
  ecu.compromise_partition(radio);
  EXPECT_TRUE(ecu.partitions()[radio].compromised);
  EXPECT_FALSE(ecu.partitions()[nav].compromised);  // isolated
  // Without hypervisor isolation, compromise spreads.
  Ecu weak = make_provisioned_ecu(sched, "weak", 2);
  weak.set_isolation(false);
  const auto a = weak.add_partition("a");
  weak.add_partition("b");
  weak.compromise_partition(a);
  EXPECT_TRUE(weak.partitions()[1].compromised);
}

TEST(Ecu, SecuredCanMessaging) {
  sim::Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500000);
  Ecu sender = make_provisioned_ecu(sched, "sensor", 1);
  Ecu receiver = make_provisioned_ecu(sched, "actuator", 2);
  sender.attach_to(&bus);
  receiver.attach_to(&bus);
  sender.boot();
  receiver.boot();

  const ivn::SecOcChannel ch(Bytes(16, 0x30));
  int verified = 0;
  receiver.subscribe(0x0F0, [&](const ivn::CanFrame& f, SimTime) {
    if (receiver.verify_secured(ch, 0x0F0, f.data).status ==
        ivn::SecOcStatus::kOk) {
      ++verified;
    }
  });
  EXPECT_TRUE(sender.send_secured(ch, 0x0F0, 0x0F0, Bytes{0x01, 0x02}));
  sched.run();
  EXPECT_EQ(verified, 1);
  EXPECT_EQ(receiver.frames_received(), 1u);
}

TEST(Ecu, DegradedModeBlocksNormalTraffic) {
  sim::Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500000);
  Ecu ecu = make_provisioned_ecu(sched, "brake", 1);
  ecu.attach_to(&bus);
  ecu.boot();
  ecu.report_voltage(9.0);  // degrade
  EXPECT_FALSE(ecu.send_frame(0x100, Bytes{1}));
  EXPECT_TRUE(ecu.send_frame(0x7DF, Bytes{1}));  // diagnostics still allowed
  sched.run();
}

TEST(Ecu, OffEcuSendsNothing) {
  sim::Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500000);
  Ecu ecu = make_provisioned_ecu(sched, "brake", 1);
  ecu.attach_to(&bus);
  EXPECT_FALSE(ecu.send_frame(0x100, Bytes{1}));
  ecu.boot();
  EXPECT_TRUE(ecu.send_frame(0x100, Bytes{1}));
  ecu.power_off();
  EXPECT_FALSE(ecu.send_frame(0x100, Bytes{1}));
  sched.run();
}

TEST(Ecu, LargePayloadUsesFd) {
  sim::Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500000, 2000000);
  Ecu a = make_provisioned_ecu(sched, "a", 1);
  Ecu b = make_provisioned_ecu(sched, "b", 2);
  a.attach_to(&bus);
  b.attach_to(&bus);
  a.boot();
  b.boot();
  bool got = false;
  b.subscribe(0x200, [&](const ivn::CanFrame& f, SimTime) {
    got = true;
    EXPECT_EQ(f.format, ivn::CanFormat::kFd);
    EXPECT_EQ(f.data.size(), 24u);  // 22 rounded up to the next FD size
  });
  EXPECT_TRUE(a.send_frame(0x200, Bytes(22, 0x11)));
  sched.run();
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace aseck::ecu

namespace aseck::ecu {
namespace {

TEST(Ecu, SecuredMessagingSurvivesFdPadding) {
  // A 16-byte MAC pushes the PDU past 8 bytes; CAN FD pads to the next DLC
  // size. The length-prefixed adaptation must still verify.
  sim::Scheduler sched;
  ivn::CanBus bus(sched, "can0", 500000, 2000000);
  crypto::Block k{};
  k.fill(0x30);
  Ecu sender(sched, "sensor", 11), receiver(sched, "actuator", 12);
  sender.provision(FirmwareImage{"s", 1, util::Bytes(64, 1)}, k, k, k);
  receiver.provision(FirmwareImage{"r", 1, util::Bytes(64, 1)}, k, k, k);
  sender.attach_to(&bus);
  receiver.attach_to(&bus);
  sender.boot();
  receiver.boot();
  const ivn::SecOcChannel ch(util::Bytes(16, 0x30),
                             ivn::SecOcConfig{16, 4, 16});
  int verified = 0;
  receiver.subscribe(0x1A0, [&](const ivn::CanFrame& f, sim::SimTime) {
    // Frame was padded to an FD size strictly larger than the PDU.
    EXPECT_GT(f.data.size(), 1u + 4u + 16u + 4u);
    if (receiver.verify_secured(ch, 0x1A0, f.data).status ==
        ivn::SecOcStatus::kOk) {
      ++verified;
    }
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(sender.send_secured(ch, 0x1A0, 0x1A0, util::Bytes{1, 2, 3, 4}));
  }
  sched.run();
  EXPECT_EQ(verified, 5);
}

TEST(Ecu, VerifySecuredRejectsGarbage) {
  sim::Scheduler sched;
  Ecu e(sched, "x", 1);
  crypto::Block k{};
  e.provision(FirmwareImage{"f", 1, util::Bytes(16, 1)}, k, k, k);
  const ivn::SecOcChannel ch(util::Bytes(16, 0x30));
  EXPECT_EQ(e.verify_secured(ch, 1, util::Bytes{}).status,
            ivn::SecOcStatus::kTooShort);
  EXPECT_EQ(e.verify_secured(ch, 1, util::Bytes{200, 1, 2}).status,
            ivn::SecOcStatus::kTooShort);  // claimed length exceeds frame
}

}  // namespace
}  // namespace aseck::ecu
