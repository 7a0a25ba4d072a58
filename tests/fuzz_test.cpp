// Tests for the E20 coverage-guided fuzzer: coverage hook semantics, mutator
// and campaign determinism, oracle wiring, and the frozen minimized
// reproducers for every parser fix the fuzzer motivated (SOME/IP length
// wrap, UDS length/ALFID validation, CAN wire-DLC validation, OTA metadata
// strict round-trip).

#include <gtest/gtest.h>

#include "fuzz/fuzzer.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/targets.hpp"
#include "ivn/can.hpp"
#include "ivn/someip.hpp"
#include "ivn/uds.hpp"
#include "ota/metadata.hpp"

namespace aseck::fuzz {
namespace {

using util::Bytes;

// --- coverage hook ----------------------------------------------------------

TEST(Coverage, SiteIdIsFnv1a64) {
  // Known-answer: FNV-1a 64 of "" is the offset basis; "a" is the classic
  // published vector.
  static_assert(util::cov::site_id("") == 14695981039346656037ULL);
  static_assert(util::cov::site_id("a") == 0xaf63dc4c8601ec8cULL);
  static_assert(util::cov::site_id("someip.parse.ok") !=
                util::cov::site_id("someip.parse.too_short"));
}

class CountingSink final : public util::cov::Sink {
 public:
  void on_site(std::uint64_t site) override { sites.push_back(site); }
  std::vector<std::uint64_t> sites;
};

TEST(Coverage, ScopedSinkInstallsAndRestores) {
  EXPECT_EQ(util::cov::current(), nullptr);
  CountingSink outer;
  {
    util::cov::ScopedSink g1(&outer);
    EXPECT_EQ(util::cov::current(), &outer);
    ASECK_COV("test.site.one");
    {
      CountingSink inner;
      util::cov::ScopedSink g2(&inner);
      ASECK_COV("test.site.two");
      EXPECT_EQ(inner.sites.size(), 1u);
    }
    EXPECT_EQ(util::cov::current(), &outer);
  }
  EXPECT_EQ(util::cov::current(), nullptr);
  ASSERT_EQ(outer.sites.size(), 1u);
  EXPECT_EQ(outer.sites[0], util::cov::site_id("test.site.one"));
}

TEST(Coverage, InstrumentedParserReportsSites) {
  CountingSink sink;
  util::cov::ScopedSink guard(&sink);
  ivn::SomeIpMessage::parse(Bytes{0x01});  // too short
  ASSERT_FALSE(sink.sites.empty());
  EXPECT_EQ(sink.sites.back(), util::cov::site_id("someip.parse.too_short"));
}

TEST(Coverage, MapDigestReflectsEdgesAndBuckets) {
  CoverageMap a;
  a.begin_exec();
  a.on_site(1);
  a.on_site(2);
  EXPECT_TRUE(a.commit_exec());
  const std::uint64_t d1 = a.digest();
  // Same edges again: no new coverage, digest unchanged.
  a.begin_exec();
  a.on_site(1);
  a.on_site(2);
  EXPECT_FALSE(a.commit_exec());
  EXPECT_EQ(a.digest(), d1);
  // A new edge changes the digest.
  a.begin_exec();
  a.on_site(3);
  EXPECT_TRUE(a.commit_exec());
  EXPECT_NE(a.digest(), d1);
}

// --- mutator ---------------------------------------------------------------

TEST(Mutator, DeterministicGivenRngState) {
  Mutator m;
  const Bytes base{0x10, 0x20, 0x30, 0x40, 0x50};
  util::Rng r1(7), r2(7), r3(8);
  std::vector<Bytes> a, b, c;
  for (int i = 0; i < 64; ++i) {
    a.push_back(m.mutate(base, r1));
    b.push_back(m.mutate(base, r2));
    c.push_back(m.mutate(base, r3));
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different stream, different mutations
}

TEST(Mutator, RespectsMaxLenAndHandlesEmpty) {
  Mutator m({/*max_len=*/16, /*max_stack=*/4});
  util::Rng rng(1);
  for (int i = 0; i < 256; ++i) {
    EXPECT_LE(m.mutate(Bytes(12, 0xAA), rng).size(), 16u);
    const Bytes from_empty = m.mutate({}, rng);
    EXPECT_LE(from_empty.size(), 16u);
  }
}

// --- fuzzer engine ---------------------------------------------------------

FuzzTarget toy_target() {
  FuzzTarget t;
  t.name = "toy";
  t.max_input = 16;
  t.seeds = {Bytes{0xBA, 0x00, 0x00}};
  t.dictionary = {Bytes{0xBA, 0xD0}};
  t.execute = [](util::BytesView b) -> ExecResult {
    ASECK_COV("toy.enter");
    if (b.size() >= 2 && b[0] == 0xBA) {
      ASECK_COV("toy.prefix");
      if (b[1] == 0xD0) return {true, "toy.planted"};
      return {true, ""};
    }
    return {false, ""};
  };
  return t;
}

TEST(Fuzzer, FindsPlantedBugAndMinimizes) {
  Fuzzer fuzzer({/*seed=*/42, /*iterations=*/2000});
  const FuzzTarget t = toy_target();
  const CampaignResult r = fuzzer.run(t);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].violation, "toy.planted");
  // ddmin-lite reduces to the 2-byte essence.
  EXPECT_EQ(r.findings[0].minimized, (Bytes{0xBA, 0xD0}));
  // The minimized input still reproduces.
  EXPECT_EQ(t.execute(r.findings[0].minimized).violation, "toy.planted");
  EXPECT_GT(r.edges, 0u);
  EXPECT_GE(r.corpus_size, t.seeds.size());
}

TEST(Fuzzer, CampaignIsBitReproducible) {
  for (const FuzzTarget& t : builtin_targets()) {
    Fuzzer::Config cfg;
    cfg.seed = 1234;
    cfg.iterations = 200;
    const CampaignResult r1 = Fuzzer(cfg).run(t);
    const CampaignResult r2 = Fuzzer(cfg).run(t);
    EXPECT_EQ(r1.to_json(), r2.to_json()) << "target " << t.name;
    EXPECT_EQ(r1.coverage_digest, r2.coverage_digest) << "target " << t.name;
  }
}

TEST(Fuzzer, DifferentSeedsDiverge) {
  const FuzzTarget t = someip_target();
  Fuzzer::Config a, b;
  a.seed = 1;
  b.seed = 2;
  a.iterations = b.iterations = 300;
  EXPECT_NE(Fuzzer(a).run(t).to_json(), Fuzzer(b).run(t).to_json());
}

TEST(Fuzzer, BuiltinTargetsAcceptTheirOwnSeeds) {
  for (const FuzzTarget& t : builtin_targets()) {
    ASSERT_FALSE(t.seeds.empty()) << t.name;
    for (const Bytes& s : t.seeds) {
      const ExecResult r = t.execute(s);
      EXPECT_TRUE(r.violation.empty())
          << t.name << " seed breaches oracle: " << r.violation;
      EXPECT_TRUE(r.accepted) << t.name << " rejects its own seed";
    }
  }
}

// --- frozen reproducers: SOME/IP length handling ---------------------------

TEST(FrozenRepro, SomeIpLengthWrapRejected) {
  // 13-byte header with length 0xFFFFFFF6: 13 + len wraps to a small value
  // in 32-bit arithmetic, so the pre-fix parser read ~4 GiB out of bounds.
  const Bytes wrap{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0xFF, 0xFF, 0xFF, 0xF6};
  EXPECT_FALSE(ivn::SomeIpMessage::parse(wrap).has_value());
}

TEST(FrozenRepro, SomeIpOversizedLengthRejected) {
  ivn::SomeIpMessage m;
  m.payload = {1, 2, 3};
  Bytes b = m.serialize();
  b[12] = 0x09;  // declared payload 9 > actual 3
  EXPECT_FALSE(ivn::SomeIpMessage::parse(b).has_value());
  b[12] = 0x02;  // shorter than actual is fine (MAC trailers ride behind)
  const auto short_ok = ivn::SomeIpMessage::parse(b);
  ASSERT_TRUE(short_ok.has_value());
  EXPECT_EQ(short_ok->payload.size(), 2u);
}

TEST(FrozenRepro, SomeIpUnknownTypeRejected) {
  ivn::SomeIpMessage m;
  Bytes b = m.serialize();
  b[8] = 0x7E;  // not a known message type
  EXPECT_FALSE(ivn::SomeIpMessage::parse(b).has_value());
}

// --- frozen reproducers: UDS byte-level request validation -----------------

class UdsFixture {
 public:
  UdsFixture()
      : server_({ivn::cmac_algorithm(Bytes(16, 0x42)), 3, 600.0}, 99) {
    server_.define_did(0xF190, {0x01}, false);
  }
  Bytes req(std::initializer_list<std::uint8_t> r, double now_s = 0.0) {
    return server_.handle_request(Bytes(r), now_s);
  }
  ivn::UdsServer& server() { return server_; }

 private:
  ivn::UdsServer server_;
};

TEST(FrozenRepro, UdsAlfidSmuggleRejected) {
  UdsFixture f;
  // alfid 0x88: 8-byte address/size descriptors — out of range, not clamped.
  EXPECT_EQ(f.req({0x34, 0x00, 0x88}), (Bytes{0x7F, 0x34, 0x31}));
  // alfid 0x40: zero-width address field.
  EXPECT_EQ(f.req({0x34, 0x00, 0x40}), (Bytes{0x7F, 0x34, 0x31}));
}

TEST(FrozenRepro, UdsDownloadHugeSizeRejected) {
  UdsFixture f;
  // memorySize 0xFFFFFFFF with 64-bit accumulation: out of range, no wrap.
  EXPECT_EQ(f.req({0x34, 0x00, 0x44, 0x00, 0x00, 0x10, 0x00, 0xFF, 0xFF, 0xFF,
                   0xFF}),
            (Bytes{0x7F, 0x34, 0x31}));
  // Body length disagreeing with the ALFID is a format error (NRC 0x13).
  EXPECT_EQ(f.req({0x34, 0x00, 0x44, 0x00, 0x00, 0x10, 0x00, 0xFF}),
            (Bytes{0x7F, 0x34, 0x13}));
}

TEST(FrozenRepro, UdsTruncatedSecurityAccessRejected) {
  UdsFixture f;
  EXPECT_EQ(f.req({0x10, 0x03}), (Bytes{0x50, 0x03}));  // extended session
  // sendKey with a 1-byte key against a 4-byte seed: reject, never clamp.
  EXPECT_EQ(f.req({0x27, 0x02, 0x01}), (Bytes{0x7F, 0x27, 0x13}));
  EXPECT_FALSE(f.server().unlocked());
  // requestSeed with trailing garbage is malformed too.
  EXPECT_EQ(f.req({0x27, 0x01, 0xAA}), (Bytes{0x7F, 0x27, 0x13}));
}

TEST(FrozenRepro, UdsWrongLengthReadWriteRejected) {
  UdsFixture f;
  EXPECT_EQ(f.req({0x22, 0xF1}), (Bytes{0x7F, 0x22, 0x13}));
  EXPECT_EQ(f.req({0x22, 0xF1, 0x90, 0x00}), (Bytes{0x7F, 0x22, 0x13}));
  EXPECT_EQ(f.req({0x22, 0xF1, 0x90}), (Bytes{0x62, 0xF1, 0x90, 0x01}));
  EXPECT_EQ(f.req({0x2E, 0xF1, 0x90}), (Bytes{0x7F, 0x2E, 0x13}));  // no value
  EXPECT_EQ(f.req({0x10}), (Bytes{0x7F, 0x10, 0x13}));
  EXPECT_EQ(f.req({0x99}), (Bytes{0x7F, 0x99, 0x11}));  // unknown service
}

TEST(FrozenRepro, UdsHandleRequestFullUnlockFlow) {
  UdsFixture f;
  EXPECT_EQ(f.req({0x10, 0x03}), (Bytes{0x50, 0x03}));
  const Bytes seed_resp = f.req({0x27, 0x01});
  ASSERT_EQ(seed_resp.size(), 2u + 4u);  // [0x67, level, seed x4]
  ASSERT_EQ(seed_resp[0], 0x67);
  const Bytes seed(seed_resp.begin() + 2, seed_resp.end());
  const Bytes key = ivn::cmac_algorithm(Bytes(16, 0x42))(seed);
  Bytes send_key{0x27, 0x02};
  send_key.insert(send_key.end(), key.begin(), key.end());
  const Bytes key_resp = f.server().handle_request(send_key, 0.0);
  EXPECT_EQ(key_resp, (Bytes{0x67, 0x02}));
  EXPECT_TRUE(f.server().unlocked());
}

// --- frozen reproducers: CAN wire decode -----------------------------------

TEST(FrozenRepro, CanClassicDlcOverflowRejected) {
  // V10: classic frame declaring dlc 15 — a lenient decoder reads 15 bytes
  // from an 8-byte body.
  const Bytes v10{0x00, 0x00, 0x00, 0x01, 0x23, 0x0F,
                  0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_FALSE(ivn::CanFrame::decode_wire(v10).has_value());
}

TEST(FrozenRepro, CanWireValidationAndRoundTrip) {
  // BRS without FD.
  EXPECT_FALSE(ivn::CanFrame::decode_wire(
                   Bytes{0x08, 0x00, 0x00, 0x01, 0x23, 0x00})
                   .has_value());
  // Payload length disagreeing with the DLC code.
  EXPECT_FALSE(ivn::CanFrame::decode_wire(
                   Bytes{0x00, 0x00, 0x00, 0x01, 0x23, 0x02, 0xAA})
                   .has_value());
  // Base id out of 11-bit range without the extended flag.
  EXPECT_FALSE(ivn::CanFrame::decode_wire(
                   Bytes{0x00, 0x00, 0x00, 0x08, 0x00, 0x00})
                   .has_value());
  // A legal FD frame round-trips exactly.
  ivn::CanFrame f;
  f.id = 0x1ABCDE;
  f.extended = true;
  f.format = ivn::CanFormat::kFd;
  f.brs = true;
  f.data.assign(24, 0x5A);
  const auto back = ivn::CanFrame::decode_wire(f.encode_wire());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->valid());
  EXPECT_EQ(back->encode_wire(), f.encode_wire());
}

// --- frozen reproducers: OTA metadata strict parsing -----------------------

TEST(FrozenRepro, OtaTruncatedMetadataRejected) {
  EXPECT_FALSE(ota::RootMeta::parse(Bytes{'R'}).has_value());
  EXPECT_FALSE(ota::TargetsMeta::parse(Bytes{'T', 0x00}).has_value());
  EXPECT_FALSE(ota::SnapshotMeta::parse(Bytes{'S'}).has_value());
  EXPECT_FALSE(ota::TimestampMeta::parse(Bytes{'M'}).has_value());
  // V12-style: targets entry declaring a huge image length, truncated header.
  Bytes v12;
  v12.push_back('T');
  util::append_be(v12, 7, 4);
  util::append_be(v12, 2'000'000'000ULL, 8);
  const char* name = "brake.img";
  v12.insert(v12.end(), name, name + 9);
  v12.push_back(0);
  v12.insert(v12.end(), 32, 0xCD);
  util::append_be(v12, ~std::uint64_t{0}, 8);
  EXPECT_FALSE(ota::TargetsMeta::parse(v12).has_value());
}

TEST(FrozenRepro, OtaMetadataTrailingBytesRejected) {
  ota::SnapshotMeta snap;
  snap.version = 3;
  snap.targets_version = 3;
  Bytes b = snap.serialize();
  ASSERT_TRUE(ota::SnapshotMeta::parse(b).has_value());
  b.push_back(0x00);
  EXPECT_FALSE(ota::SnapshotMeta::parse(b).has_value());
}

TEST(FrozenRepro, OtaRootMetaParseRoundTrip) {
  const auto k1 = crypto::EcdsaPrivateKey::from_secret(Bytes(32, 0x31));
  const auto k2 = crypto::EcdsaPrivateKey::from_secret(Bytes(32, 0x32));
  ota::RootMeta root;
  root.version = 5;
  root.expires.ns = 42;
  root.roles[ota::Role::kRoot] = {2, {ota::key_id(k1.public_key()),
                                      ota::key_id(k2.public_key())}};
  root.roles[ota::Role::kTimestamp] = {1, {ota::key_id(k2.public_key())}};
  root.keys[ota::key_id_hex(ota::key_id(k1.public_key()))] = k1.public_key();
  root.keys[ota::key_id_hex(ota::key_id(k2.public_key()))] = k2.public_key();
  const Bytes b = root.serialize();
  const auto parsed = ota::RootMeta::parse(b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, root);
  EXPECT_EQ(parsed->serialize(), b);
  // Flipping a key byte off the curve rejects.
  Bytes bad = b;
  bad[bad.size() - 1] ^= 0x01;
  EXPECT_FALSE(ota::RootMeta::parse(bad).has_value());
}

}  // namespace
}  // namespace aseck::fuzz
