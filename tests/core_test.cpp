// Tests for the core extensible architecture: policy engine, signed policy
// updates, suite registry / crypto agility, trade-off controller, layer
// manager, and the verification configuration-space model.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/layers.hpp"
#include "core/modes.hpp"
#include "core/policy.hpp"
#include "core/registry.hpp"
#include "core/verification.hpp"

namespace aseck::core {
namespace {

using util::Bytes;

SecurityPolicy base_policy(std::uint32_t version = 1) {
  SecurityPolicy p;
  p.version = version;
  p.name = "test";
  p.values[keys::kSecocMacBytes] = PolicyValue(std::int64_t{8});
  p.values[keys::kIdsSensitivity] = PolicyValue(3.0);
  p.values[keys::kSecocSuite] = PolicyValue(std::string("cmac-aes128"));
  p.values[keys::kGatewayDefaultDeny] = PolicyValue(true);
  p.values[keys::kV2xMaxAgeMs] = PolicyValue(std::int64_t{250});
  p.values[keys::kPkesRttLimitUs] = PolicyValue(320.0);
  return p;
}

TEST(PolicyValue, TypedAccess) {
  EXPECT_EQ(PolicyValue(std::int64_t{5}).as_int(), 5);
  EXPECT_EQ(PolicyValue(2.5).as_double(), 2.5);
  EXPECT_EQ(PolicyValue(std::string("x")).as_string(), "x");
  EXPECT_EQ(PolicyValue(true).as_bool(), true);
  // Int promotes to double but not vice versa.
  EXPECT_EQ(PolicyValue(std::int64_t{5}).as_double(), 5.0);
  EXPECT_FALSE(PolicyValue(2.5).as_int().has_value());
  EXPECT_FALSE(PolicyValue(std::string("x")).as_bool().has_value());
}

TEST(Policy, GettersWithDefaults) {
  const SecurityPolicy p = base_policy();
  EXPECT_EQ(p.get_int(keys::kSecocMacBytes, 4), 8);
  EXPECT_EQ(p.get_int("missing.key", 42), 42);
  EXPECT_DOUBLE_EQ(p.get_double(keys::kIdsSensitivity, 4.0), 3.0);
  EXPECT_EQ(p.get_string(keys::kSecocSuite, "z"), "cmac-aes128");
  EXPECT_TRUE(p.get_bool(keys::kGatewayDefaultDeny, false));
}

TEST(Policy, SerializationBindsContent) {
  const SecurityPolicy a = base_policy();
  SecurityPolicy b = base_policy();
  EXPECT_EQ(a.serialize(), b.serialize());
  b.values[keys::kSecocMacBytes] = PolicyValue(std::int64_t{16});
  EXPECT_NE(a.serialize(), b.serialize());
  b = base_policy();
  b.version = 2;
  EXPECT_NE(a.serialize(), b.serialize());
}

TEST(PolicyStore, SignedUpdateLifecycle) {
  crypto::Drbg rng(1u);
  const auto authority = crypto::EcdsaPrivateKey::generate(rng);
  const auto rogue = crypto::EcdsaPrivateKey::generate(rng);
  PolicyStore store(authority.public_key(), base_policy(1));

  int notified = 0;
  store.subscribe([&](const SecurityPolicy& p) {
    ++notified;
    EXPECT_GE(p.version, 2u);
  });

  // Valid update.
  EXPECT_EQ(store.apply_update(SignedPolicy::sign(base_policy(2), authority)),
            PolicyStore::UpdateResult::kAccepted);
  EXPECT_EQ(store.active().version, 2u);
  EXPECT_EQ(notified, 1);

  // Version rollback.
  EXPECT_EQ(store.apply_update(SignedPolicy::sign(base_policy(2), authority)),
            PolicyStore::UpdateResult::kVersionRollback);
  EXPECT_EQ(store.apply_update(SignedPolicy::sign(base_policy(1), authority)),
            PolicyStore::UpdateResult::kVersionRollback);

  // Forged update.
  EXPECT_EQ(store.apply_update(SignedPolicy::sign(base_policy(3), rogue)),
            PolicyStore::UpdateResult::kBadSignature);
  EXPECT_EQ(store.active().version, 2u);

  // Tampered-after-signing update.
  SignedPolicy tampered = SignedPolicy::sign(base_policy(3), authority);
  tampered.policy.values[keys::kSecocMacBytes] = PolicyValue(std::int64_t{1});
  EXPECT_EQ(store.apply_update(tampered), PolicyStore::UpdateResult::kBadSignature);

  EXPECT_EQ(store.updates_accepted(), 1u);
  EXPECT_EQ(store.updates_rejected(), 4u);
}

// Offers a signed version-2 update of base_policy() with `key` set to
// `value` to a store holding version 1.
struct OfferedUpdate {
  PolicyStore::UpdateResult result;
  std::uint32_t active_version;
};
OfferedUpdate offer_update(const char* key, PolicyValue value) {
  crypto::Drbg rng(2u);
  const auto authority = crypto::EcdsaPrivateKey::generate(rng);
  PolicyStore store(authority.public_key(), base_policy(1));
  SecurityPolicy p = base_policy(2);
  p.values[key] = std::move(value);
  const auto result = store.apply_update(SignedPolicy::sign(p, authority));
  return {result, store.active().version};
}

TEST(PolicyStore, RejectsInvalidValues) {
  const struct {
    const char* key;
    PolicyValue value;
  } cases[] = {
      // Cast to uint64_t, -1 ms would wrap SimTime: every V2X age check rejects.
      {keys::kV2xMaxAgeMs, PolicyValue(std::int64_t{-1})},
      // NaN fails `rtt > limit`, which would switch relay bounding off silently.
      {keys::kPkesRttLimitUs, PolicyValue(std::nan(""))},
      {keys::kPkesRttLimitUs, PolicyValue(-5.0)},
      // Accepted, it would make the next make_secoc_channel throw.
      {keys::kSecocMacBytes, PolicyValue(std::int64_t{0})},
      // get_int ignores a double and would fall back to the default.
      {keys::kSecocMacBytes, PolicyValue(8.0)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.key);
    const OfferedUpdate u = offer_update(c.key, c.value);
    EXPECT_EQ(u.result, PolicyStore::UpdateResult::kInvalidValue);
    EXPECT_EQ(u.active_version, 1u);
  }
}

TEST(PolicyStore, AcceptsValuesAtRangeEnds) {
  for (const keys::Range& r : keys::kRanges) {
    for (const double v : {r.min, r.max}) {
      const PolicyValue value =
          r.integral ? PolicyValue(static_cast<std::int64_t>(v)) : PolicyValue(v);
      const OfferedUpdate u = offer_update(r.key, value);
      EXPECT_EQ(u.result, PolicyStore::UpdateResult::kAccepted) << r.key << "=" << v;
    }
  }
}

TEST(PolicyStore, ThrowsOnInvalidInitialPolicy) {
  crypto::Drbg rng(3u);
  const auto authority = crypto::EcdsaPrivateKey::generate(rng);
  SecurityPolicy p = base_policy(1);
  p.values[keys::kV2xMaxAgeMs] = PolicyValue(std::int64_t{-1});
  EXPECT_THROW(PolicyStore(authority.public_key(), p), std::invalid_argument);
}

TEST(Registry, BuiltinsAndRoundTrip) {
  const SuiteRegistry reg = SuiteRegistry::with_builtins();
  EXPECT_TRUE(reg.known("cmac-aes128"));
  EXPECT_TRUE(reg.known("hmac-sha256"));
  EXPECT_FALSE(reg.known("post-quantum-mac"));

  const Bytes key(16, 0x42);
  const Bytes msg = util::from_string("payload");
  for (const auto& name : reg.names()) {
    const auto suite = reg.create(name, key, 8);
    ASSERT_NE(suite, nullptr) << name;
    const Bytes tag = suite->tag(msg);
    EXPECT_EQ(tag.size(), 8u);
    EXPECT_TRUE(suite->verify(msg, tag));
    Bytes bad = tag;
    bad[0] ^= 1;
    EXPECT_FALSE(suite->verify(msg, bad));
    EXPECT_FALSE(suite->verify(util::from_string("other"), tag));
  }
  EXPECT_EQ(reg.create("nope", key, 8), nullptr);
}

TEST(Registry, RuntimeExtension) {
  // The extensibility story: a suite that did not exist at SOP is
  // registered in-field and becomes selectable by policy.
  SuiteRegistry reg = SuiteRegistry::with_builtins();
  class XorSuite : public MacSuite {  // toy "future" algorithm
   public:
    XorSuite(util::BytesView key, std::size_t n) : key_(key.begin(), key.end()), n_(n) {}
    std::string name() const override { return "xor-demo"; }
    std::size_t tag_bytes() const override { return n_; }
    util::Bytes tag(util::BytesView msg) const override {
      util::Bytes t(n_, 0);
      for (std::size_t i = 0; i < msg.size(); ++i) t[i % n_] ^= msg[i] ^ key_[i % key_.size()];
      return t;
    }
    bool verify(util::BytesView msg, util::BytesView tag_in) const override {
      return util::ct_equal(tag(msg), tag_in);
    }
   private:
    util::Bytes key_;
    std::size_t n_;
  };
  EXPECT_TRUE(reg.register_suite("xor-demo", [](util::BytesView k, std::size_t n) {
    return std::unique_ptr<MacSuite>(new XorSuite(k, n));
  }));
  EXPECT_TRUE(reg.known("xor-demo"));
  const auto suite = reg.create("xor-demo", Bytes(16, 1), 4);
  EXPECT_TRUE(suite->verify(Bytes{1, 2, 3}, suite->tag(Bytes{1, 2, 3})));
  // Re-registration replaces.
  EXPECT_FALSE(reg.register_suite("xor-demo", [](util::BytesView k, std::size_t n) {
    return std::unique_ptr<MacSuite>(new XorSuite(k, n));
  }));
}

TEST(Modes, SecurityIndexOrdering) {
  TradeoffController ctl;
  const double parked = ctl.mode_for(Environment::kParked).security_index();
  const double highway = ctl.mode_for(Environment::kHighway).security_index();
  const double urban = ctl.mode_for(Environment::kUrban).security_index();
  const double intersection =
      ctl.mode_for(Environment::kIntersection).security_index();
  EXPECT_LT(parked, highway);
  EXPECT_LT(highway, urban);
  EXPECT_LT(urban, intersection);
}

TEST(Modes, EnvironmentSwitchingWithHysteresis) {
  TradeoffController ctl;
  using util::SimTime;
  EXPECT_EQ(ctl.update(Environment::kHighway, 0.0, SimTime::from_s(1)).name,
            "highway");
  // Down-transition within the dwell window is suppressed...
  EXPECT_EQ(ctl.update(Environment::kParked, 0.0, SimTime::from_s(2)).name,
            "highway");
  // ...but allowed after the dwell expires.
  EXPECT_EQ(ctl.update(Environment::kParked, 0.0, SimTime::from_s(5)).name,
            "parked");
  // Up-transition (escalation) is immediate.
  EXPECT_EQ(ctl.update(Environment::kIntersection, 0.0, SimTime::from_s(5)).name,
            "intersection");
}

TEST(Modes, ThreatEscalationOverridesEnvironment) {
  TradeoffController ctl;
  using util::SimTime;
  EXPECT_EQ(ctl.update(Environment::kHighway, 0.9, SimTime::from_s(1)).name,
            "lockdown");
  EXPECT_EQ(ctl.current().secoc_mac_bytes, 16u);
  // Threat clears: back to environment mode after dwell.
  EXPECT_EQ(ctl.update(Environment::kHighway, 0.0, SimTime::from_s(10)).name,
            "highway");
}

TEST(Layers, CompilePolicyToTypedConfig) {
  const CompiledConfig cfg = compile_policy(base_policy());
  EXPECT_EQ(cfg.secoc.mac_bytes, 8u);
  EXPECT_DOUBLE_EQ(cfg.ids_sensitivity, 3.0);
  EXPECT_TRUE(cfg.gateway_default_deny);
  EXPECT_EQ(cfg.v2x_policy.max_age, util::SimTime::from_ms(250));
  EXPECT_DOUBLE_EQ(cfg.pkes_rtt_limit_us, 320.0);
  // Defaults for unspecified keys.
  EXPECT_EQ(cfg.mac_suite, "cmac-aes128");
  EXPECT_DOUBLE_EQ(cfg.gateway_rate_limit_fps, 0.0);
}

TEST(Layers, AppliesToBoundComponents) {
  sim::Scheduler sched;
  ivn::CanBus external(sched, "telematics", 500000);
  ivn::CanBus internal(sched, "powertrain", 500000);
  gateway::SecurityGateway gw(sched, "cgw");
  gw.add_domain("telematics", &external);
  gw.add_domain("powertrain", &internal);

  crypto::Block k{};
  k.fill(0x70);
  access::PkesCar pkes(k, 1);

  LayerManager mgr;
  mgr.bind_gateway(&gw, {"telematics"});
  mgr.bind_pkes(&pkes);

  SecurityPolicy p = base_policy();
  p.values[keys::kGatewayRateLimit] = PolicyValue(50.0);
  gateway::FirewallRule allow_diag;
  allow_diag.id_min = 0x700;
  allow_diag.id_max = 0x7FF;
  allow_diag.allow = true;
  p.firewall_rules.push_back(allow_diag);
  mgr.apply(p);

  EXPECT_EQ(mgr.applications(), 1u);
  EXPECT_DOUBLE_EQ(pkes.rtt_limit_us(), 320.0);

  // SecOC channels honor the policy's MAC length.
  const auto ch = mgr.make_secoc_channel(Bytes(16, 0x11));
  EXPECT_EQ(ch.config().mac_bytes, 8u);
  EXPECT_EQ(ch.overhead(), 8u + 1u);
}

TEST(Layers, CryptoAgilityMigration) {
  LayerManager mgr;
  SecurityPolicy p1 = base_policy(1);
  mgr.apply(p1);
  const Bytes key(16, 0x42);
  auto suite1 = mgr.make_mac_suite(key);
  EXPECT_EQ(suite1->name(), "cmac-aes128");

  // In-field migration: policy v2 flips the suite.
  SecurityPolicy p2 = base_policy(2);
  p2.values[keys::kSecocSuite] = PolicyValue(std::string("hmac-sha256"));
  mgr.apply(p2);
  auto suite2 = mgr.make_mac_suite(key);
  EXPECT_EQ(suite2->name(), "hmac-sha256");
  // Old tags no longer verify under the new suite (clean cutover).
  const Bytes msg = util::from_string("m");
  EXPECT_FALSE(suite2->verify(msg, suite1->tag(msg)));

  // Unknown suite in policy falls back to baseline instead of failing.
  SecurityPolicy p3 = base_policy(3);
  p3.values[keys::kSecocSuite] = PolicyValue(std::string("pqc-dilithium-mac"));
  mgr.apply(p3);
  EXPECT_EQ(mgr.make_mac_suite(key)->name(), "cmac-aes128");
}

TEST(Verification, CountsAndReduction) {
  ConfigSpace space;
  space.add({"mac_len", 4, false});
  space.add({"suite", 2, false});
  space.add({"ids_mode", 3, true});
  space.add({"pseudonym", 5, true});
  EXPECT_EQ(space.exhaustive_count(), 4u * 2 * 3 * 5);
  EXPECT_EQ(space.reduced_count(), 4u * 2 + 3 + 5);
}

TEST(Verification, PairwiseArrayCoversAllPairs) {
  ConfigSpace space;
  space.add({"a", 3, false});
  space.add({"b", 3, false});
  space.add({"c", 2, false});
  space.add({"d", 2, false});
  const auto rows = space.pairwise_array(7);
  EXPECT_TRUE(space.covers_all_pairs(rows));
  // Pairwise must beat exhaustive (36) and be at least max_i*max_j (9).
  EXPECT_LT(rows.size(), 36u);
  EXPECT_GE(rows.size(), 9u);
}

TEST(Verification, PairwiseScalesSubExponentially) {
  ConfigSpace small, large;
  for (int i = 0; i < 4; ++i) small.add({"p" + std::to_string(i), 2, false});
  for (int i = 0; i < 10; ++i) large.add({"p" + std::to_string(i), 2, false});
  const auto rows_small = small.pairwise_array(1);
  const auto rows_large = large.pairwise_array(1);
  EXPECT_TRUE(small.covers_all_pairs(rows_small));
  EXPECT_TRUE(large.covers_all_pairs(rows_large));
  // Exhaustive grows 16 -> 1024; pairwise grows far slower.
  EXPECT_LT(rows_large.size(), rows_small.size() * 8);
  EXPECT_LT(rows_large.size(), 30u);
}

TEST(Verification, EdgeCases) {
  ConfigSpace empty;
  EXPECT_EQ(empty.exhaustive_count(), 1u);
  EXPECT_TRUE(empty.pairwise_array(1).empty());
  ConfigSpace one;
  one.add({"only", 3, false});
  EXPECT_EQ(one.pairwise_array(1).size(), 3u);
}

}  // namespace
}  // namespace aseck::core
