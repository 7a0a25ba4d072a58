// Tests for UDS diagnostics security and AUTOSAR E2E protection.

#include <gtest/gtest.h>

#include "ivn/can.hpp"
#include "ivn/e2e.hpp"
#include "ivn/uds.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"

namespace aseck::ivn {
namespace {

using util::Bytes;

UdsServer make_server(SeedKeyFn algo) {
  UdsServer::Config cfg;
  cfg.seed_key = std::move(algo);
  cfg.max_attempts = 3;
  cfg.lockout_s = 600.0;
  return UdsServer(cfg, 42);
}

TEST(Uds, SeedKeyHappyPath) {
  const std::uint32_t secret = 0xCAFEBABE;
  UdsServer server = make_server(weak_xor_algorithm(secret));
  EXPECT_TRUE(server.session_control(UdsSession::kExtended, 0).positive);
  const UdsResponse seed = server.request_seed(0);
  ASSERT_TRUE(seed.positive);
  EXPECT_EQ(seed.data.size(), 4u);
  const Bytes key = weak_xor_algorithm(secret)(seed.data);
  EXPECT_TRUE(server.send_key(key, 1).positive);
  EXPECT_TRUE(server.unlocked());
}

TEST(Uds, DefaultSessionRefusesSeed) {
  UdsServer server = make_server(weak_xor_algorithm(1));
  const UdsResponse r = server.request_seed(0);
  EXPECT_FALSE(r.positive);
  EXPECT_EQ(r.nrc, UdsNrc::kConditionsNotCorrect);
}

TEST(Uds, WrongKeyCountsAndLocksOut) {
  UdsServer server = make_server(weak_xor_algorithm(0x11223344));
  server.session_control(UdsSession::kExtended, 0);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(server.request_seed(0).positive);
    const UdsResponse r = server.send_key(Bytes(4, 0xFF), 1);
    EXPECT_FALSE(r.positive);
    EXPECT_EQ(r.nrc, UdsNrc::kInvalidKey);
  }
  ASSERT_TRUE(server.request_seed(2).positive);
  const UdsResponse third = server.send_key(Bytes(4, 0xFF), 3);
  EXPECT_EQ(third.nrc, UdsNrc::kExceededAttempts);
  // Locked out now.
  EXPECT_EQ(server.request_seed(10).nrc, UdsNrc::kRequiredTimeDelayNotExpired);
  // After the lockout expires, access works again.
  EXPECT_TRUE(server.request_seed(700).positive);
}

TEST(Uds, KeyWithoutSeedRejected) {
  UdsServer server = make_server(weak_xor_algorithm(1));
  server.session_control(UdsSession::kExtended, 0);
  EXPECT_EQ(server.send_key(Bytes(4, 0), 0).nrc, UdsNrc::kConditionsNotCorrect);
  // One attempt per seed: the seed is consumed by a failed try.
  ASSERT_TRUE(server.request_seed(0).positive);
  server.send_key(Bytes(4, 0xFF), 1);
  EXPECT_EQ(server.send_key(Bytes(4, 0xFF), 2).nrc,
            UdsNrc::kConditionsNotCorrect);
}

TEST(Uds, ProgrammingSessionGatedOnUnlock) {
  const std::uint32_t secret = 0x5A5A5A5A;
  UdsServer server = make_server(weak_xor_algorithm(secret));
  server.session_control(UdsSession::kExtended, 0);
  EXPECT_EQ(server.session_control(UdsSession::kProgramming, 0).nrc,
            UdsNrc::kSecurityAccessDenied);
  EXPECT_EQ(server.request_download(0).nrc, UdsNrc::kConditionsNotCorrect);
  const auto seed = server.request_seed(0);
  server.send_key(weak_xor_algorithm(secret)(seed.data), 1);
  EXPECT_TRUE(server.session_control(UdsSession::kProgramming, 1).positive);
  EXPECT_TRUE(server.request_download(1).positive);
  // Returning to default re-locks.
  server.session_control(UdsSession::kDefault, 2);
  EXPECT_FALSE(server.unlocked());
}

TEST(Uds, DidReadWriteProtection) {
  const std::uint32_t secret = 0x22446688;
  UdsServer server = make_server(weak_xor_algorithm(secret));
  server.define_did(0xF190, util::from_string("VIN1234567"), true);
  server.define_did(0x0101, Bytes{0x01}, false);

  EXPECT_TRUE(server.read_data(0xF190).positive);
  EXPECT_EQ(server.read_data(0x9999).nrc, UdsNrc::kRequestOutOfRange);
  // Unprotected DID writable without unlock; protected one is not.
  EXPECT_TRUE(server.write_data(0x0101, Bytes{0x02}, 0).positive);
  EXPECT_EQ(server.write_data(0xF190, util::from_string("HACKEDVIN0"), 0).nrc,
            UdsNrc::kSecurityAccessDenied);
  // After unlock the protected DID becomes writable.
  server.session_control(UdsSession::kExtended, 0);
  const auto seed = server.request_seed(0);
  server.send_key(weak_xor_algorithm(secret)(seed.data), 1);
  EXPECT_TRUE(server.write_data(0xF190, util::from_string("NEWVIN0000"), 2).positive);
  EXPECT_EQ(server.read_data(0xF190).data, util::from_string("NEWVIN0000"));
}

TEST(Uds, CmacAlgorithmStrongerThanXor) {
  Bytes key16(16, 0x5C);
  UdsServer server = make_server(cmac_algorithm(key16));
  server.session_control(UdsSession::kExtended, 0);
  const auto seed = server.request_seed(0);
  const Bytes good = cmac_algorithm(key16)(seed.data);
  EXPECT_EQ(good.size(), 4u);
  EXPECT_TRUE(server.send_key(good, 1).positive);
}

TEST(Uds, BruteForceBlockedByLockout) {
  UdsServer server = make_server(weak_xor_algorithm(0xDEADBEEF));
  util::Rng rng(7);
  const UdsAttackResult r = brute_force_security_access(server, 100000, 0, rng);
  EXPECT_FALSE(r.unlocked);
  EXPECT_TRUE(r.locked_out);
  EXPECT_LE(r.attempts, 3u);  // attempt counter + lockout cap the attack
}

TEST(Uds, BruteForceSucceedsWithoutLockout) {
  // Misconfigured server: effectively no attempt limit, weak algorithm with
  // a tiny constant space (models servers whose constants were leaked).
  UdsServer::Config cfg;
  cfg.seed_key = weak_xor_algorithm(0x000000FF);
  cfg.max_attempts = 1u << 30;
  cfg.lockout_s = 0;
  UdsServer server(cfg, 1);
  // Attacker knows the constant is 8-bit: enumerate.
  server.session_control(UdsSession::kExtended, 0);
  bool unlocked = false;
  for (std::uint32_t c = 0; c < 256 && !unlocked; ++c) {
    const auto seed = server.request_seed(static_cast<double>(c));
    ASSERT_TRUE(seed.positive);
    unlocked = server
                   .send_key(weak_xor_algorithm(c)(seed.data),
                             static_cast<double>(c) + 0.5)
                   .positive;
  }
  EXPECT_TRUE(unlocked);
}

// ---------------------------------------------------------------- E2E

TEST(E2e, ProtectCheckRoundTrip) {
  const E2eConfig cfg{0x1234, 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  for (int i = 0; i < 40; ++i) {
    const Bytes payload{static_cast<std::uint8_t>(i), 0x55};
    const auto r = rx.check(tx.protect(payload));
    ASSERT_EQ(r.status, E2eStatus::kOk) << i;
    EXPECT_EQ(r.payload, payload);
  }
}

TEST(E2e, DetectsCorruption) {
  const E2eConfig cfg{0x1234, 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  Bytes pdu = tx.protect(Bytes{0x01, 0x02});
  pdu[3] ^= 0x40;
  EXPECT_EQ(rx.check(pdu).status, E2eStatus::kWrongCrc);
  EXPECT_EQ(rx.check(Bytes{0x01}).status, E2eStatus::kWrongCrc);
}

TEST(E2e, DetectsRepeatAndLoss) {
  const E2eConfig cfg{0x0042, 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  const Bytes pdu1 = tx.protect(Bytes{0x01});
  EXPECT_EQ(rx.check(pdu1).status, E2eStatus::kOk);
  EXPECT_EQ(rx.check(pdu1).status, E2eStatus::kRepeated);  // replayed frame
  (void)tx.protect(Bytes{0x02});                            // lost
  const Bytes pdu3 = tx.protect(Bytes{0x03});
  EXPECT_EQ(rx.check(pdu3).status, E2eStatus::kOkSomeLost);
  // Drop more than max_delta -> sequence error.
  for (int i = 0; i < 5; ++i) (void)tx.protect(Bytes{0x04});
  EXPECT_EQ(rx.check(tx.protect(Bytes{0x05})).status, E2eStatus::kWrongSequence);
  // Resynchronized after the break.
  EXPECT_EQ(rx.check(tx.protect(Bytes{0x06})).status, E2eStatus::kOk);
}

TEST(E2e, DataIdMismatchDetected) {
  E2eProtector tx(E2eConfig{0x1111, 2});
  E2eChecker rx(E2eConfig{0x2222, 2});  // different data id (masquerade)
  EXPECT_EQ(rx.check(tx.protect(Bytes{0x01})).status, E2eStatus::kWrongCrc);
}

TEST(E2e, NotASecurityMechanism) {
  // An adversary who knows the data id forges a perfectly valid E2E frame —
  // the CRC is unkeyed. This is the safety-vs-security distinction.
  const E2eConfig cfg{0x0F0, 2};
  E2eChecker rx(cfg);
  E2eProtector honest(cfg);
  EXPECT_EQ(rx.check(honest.protect(Bytes{0x10})).status, E2eStatus::kOk);
  // Forger crafts counter+crc for malicious payload.
  const Bytes evil{0x66};
  const std::uint8_t forged_counter = 1;  // next expected
  Bytes forged;
  forged.push_back(e2e_crc(cfg, forged_counter, evil));
  forged.push_back(forged_counter);
  forged.insert(forged.end(), evil.begin(), evil.end());
  EXPECT_EQ(rx.check(forged).status, E2eStatus::kOk);  // accepted!
}

TEST(E2e, FlagsChaosPlaneFrameDuplicates) {
  // Regression for the fault-injection integration: a FaultPlan
  // kFrameDuplicate window on a CAN bus delivers every frame twice, and the
  // E2E layer must catch the echo — each duplicate carries the same alive
  // counter, so the checker flags exactly one kRepeated per bus-level
  // duplication. This is how a supervision layer tells replay/echo from
  // plain loss.
  sim::Scheduler sched;
  sim::Telemetry t;
  CanBus bus(sched, "can0", 500'000, 0, t);
  struct Node final : CanNode {
    using CanNode::CanNode;
    E2eChecker* chk = nullptr;
    std::vector<E2eStatus> statuses;
    void on_frame(const CanFrame& f, util::SimTime) override {
      if (chk) statuses.push_back(chk->check(f.data).status);
    }
  };
  Node tx_node("tx"), rx_node("rx");
  const E2eConfig cfg{0x0321, 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  rx_node.chk = &rx;
  bus.attach(&tx_node);
  bus.attach(&rx_node);

  sim::FaultPlan plan(sched, 5);
  bus.set_fault_port(&plan.port("can0"));
  plan.window(sim::SimTime::from_ms(1), sim::SimTime::from_ms(100),
              {"can0", sim::FaultKind::kFrameDuplicate, 1.0});
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(sim::SimTime::from_ms(2 + 2 * i), [&, i] {
      CanFrame f;
      f.id = 0x18;
      f.data = tx.protect(Bytes{static_cast<std::uint8_t>(i)});
      bus.send(&tx_node, f);
    });
  }
  sched.run();

  // Every frame arrived twice: original checks kOk, echo checks kRepeated,
  // and the E2E-layer count matches the bus-layer duplication count.
  ASSERT_EQ(rx_node.statuses.size(), 10u);
  EXPECT_EQ(rx.ok(), 5u);
  EXPECT_EQ(rx.repeated(), 5u);
  EXPECT_EQ(rx.wrong_crc(), 0u);
  EXPECT_EQ(rx.wrong_sequence(), 0u);
  EXPECT_EQ(t.metrics->counter_value("can.can0.frames_duplicated"),
            rx.repeated());
  EXPECT_EQ(plan.unrecovered(), 0u);
}

TEST(E2e, CounterWrapsAt15) {
  const E2eConfig cfg{0x7, 2};
  E2eProtector tx(cfg);
  E2eChecker rx(cfg);
  for (int i = 0; i < 100; ++i) {
    const auto r = rx.check(tx.protect(Bytes{0x01}));
    ASSERT_EQ(r.status, E2eStatus::kOk) << i;  // wrap must look seamless
  }
}

}  // namespace
}  // namespace aseck::ivn
