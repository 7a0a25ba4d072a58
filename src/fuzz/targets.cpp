#include "fuzz/targets.hpp"

#include <algorithm>

#include "crypto/cmac.hpp"
#include "crypto/sha256.hpp"
#include "ivn/can.hpp"
#include "ivn/secoc.hpp"
#include "ivn/someip.hpp"
#include "ivn/uds.hpp"
#include "ota/metadata.hpp"

namespace aseck::fuzz {

namespace {

// Fixed key material: targets must be pure functions of their input, so all
// crypto state is baked in.
util::Bytes fixed_key16() {
  util::Bytes k(16);
  for (std::size_t i = 0; i < k.size(); ++i) {
    k[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 7));
  }
  return k;
}

util::Bytes tok(std::initializer_list<std::uint8_t> bytes) {
  return util::Bytes(bytes);
}

}  // namespace

FuzzTarget someip_target() {
  FuzzTarget t;
  t.name = "someip";
  t.max_input = 256;
  {
    ivn::SomeIpMessage m;
    m.service = 0x1234;
    m.method = 0x0001;
    m.client = 0x0042;
    m.session = 0x0007;
    m.type = ivn::SomeIpMessage::Type::kRequest;
    m.payload = {0xde, 0xad, 0xbe, 0xef};
    t.seeds.push_back(m.serialize());
    m.type = ivn::SomeIpMessage::Type::kNotification;
    m.payload.clear();
    t.seeds.push_back(m.serialize());
  }
  t.dictionary = {tok({0x00}), tok({0x80}), tok({0x81}), tok({0x02}),
                  tok({0x00, 0x00, 0x00, 0x00}),
                  tok({0xff, 0xff, 0xff, 0xf6})};
  t.execute = [](util::BytesView b) -> ExecResult {
    const auto m = ivn::SomeIpMessage::parse(b);
    if (!m) return {false, ""};
    if (b.size() < 13 || m->payload.size() > b.size() - 13) {
      return {true, "someip.oracle.len"};
    }
    const util::Bytes s = m->serialize();
    const auto m2 = ivn::SomeIpMessage::parse(s);
    if (!m2) return {true, "someip.oracle.reparse"};
    if (m2->serialize() != s) return {true, "someip.oracle.fixpoint"};
    return {true, ""};
  };
  return t;
}

FuzzTarget uds_target() {
  FuzzTarget t;
  t.name = "uds";
  t.max_input = 256;
  // Seeds: plausible multi-request scripts in the [len][request...] framing.
  t.seeds = {
      // session extended, requestSeed level 1
      tok({0x02, 0x10, 0x03, 0x02, 0x27, 0x01}),
      // read DID F190, write DID 1234
      tok({0x03, 0x22, 0xF1, 0x90, 0x05, 0x2E, 0x12, 0x34, 0xAA, 0xBB}),
      // read DID F190, then requestDownload alfid 0x44 addr=0x1000 size=0x100
      // (gated negative: not unlocked)
      tok({0x03, 0x22, 0xF1, 0x90, 0x0B, 0x34, 0x00, 0x44, 0x00, 0x00, 0x10,
           0x00, 0x00, 0x00, 0x01, 0x00}),
      // sendKey level 2 with a (wrong) 4-byte key
      tok({0x02, 0x10, 0x03, 0x02, 0x27, 0x01, 0x06, 0x27, 0x02, 0x01, 0x02,
           0x03, 0x04}),
  };
  t.dictionary = {tok({0x10}), tok({0x27}), tok({0x22}),       tok({0x2E}),
                  tok({0x31}), tok({0x34}), tok({0xF1, 0x90}), tok({0x12, 0x34}),
                  tok({0xFF, 0x00})};
  t.execute = [](util::BytesView b) -> ExecResult {
    const ivn::SeedKeyFn seed_key = ivn::cmac_algorithm(fixed_key16());
    ivn::UdsServer server({seed_key, 3, 600.0}, 0x5eed);
    server.define_did(0xF190, {0x01, 0x02, 0x03}, false);
    server.define_did(0x1234, {0x00}, false);
    server.define_did(0x2F01, {0x00}, true);  // write-protected

    // Shadow security model for the V9 bypass oracle.
    std::optional<util::Bytes> shadow_seed;
    bool any_accepted = false;
    std::size_t pos = 0;
    for (int reqno = 0; reqno < 32 && pos < b.size(); ++reqno) {
      const std::size_t len =
          std::min<std::size_t>(b[pos], b.size() - pos - 1);
      const util::BytesView req = b.subspan(pos + 1, len);
      pos += 1 + len;
      const double now_s = 0.05 * reqno;
      const bool was_unlocked = server.unlocked();
      const util::Bytes resp = server.handle_request(req, now_s);

      // Response shape invariant.
      if (resp.empty()) return {any_accepted, "uds.oracle.empty_response"};
      const std::uint8_t sid = req.empty() ? 0x00 : req[0];
      const bool negative = resp[0] == 0x7F;
      if (negative) {
        if (resp.size() != 3 || resp[1] != sid || resp[2] == 0x00) {
          return {any_accepted, "uds.oracle.negative_shape"};
        }
      } else {
        if (resp[0] != static_cast<std::uint8_t>(sid + 0x40)) {
          return {any_accepted, "uds.oracle.positive_shape"};
        }
        any_accepted = true;
      }

      // Track seeds handed out by positive requestSeed responses.
      if (!negative && sid == 0x27 && req.size() >= 2 && (req[1] % 2) == 1) {
        // Positive response data = [level, seed...].
        shadow_seed.emplace(resp.begin() + 2, resp.end());
      }
      // The server may only unlock on a sendKey carrying the exact CMAC of
      // the last issued seed — anything else is a security bypass.
      if (!was_unlocked && server.unlocked()) {
        const bool is_send_key =
            sid == 0x27 && req.size() >= 2 && (req[1] % 2) == 0;
        if (!is_send_key || !shadow_seed) {
          return {any_accepted, "uds.oracle.bypass"};
        }
        const util::Bytes expected = ivn::cmac_algorithm(fixed_key16())(
            *shadow_seed);
        const util::Bytes sent(req.begin() + 2, req.end());
        if (sent != expected) return {any_accepted, "uds.oracle.bypass"};
      }
      // RequestDownload must never succeed outside unlocked + programming.
      if (!negative && sid == 0x34 &&
          (!server.unlocked() ||
           server.session() != ivn::UdsSession::kProgramming)) {
        return {any_accepted, "uds.oracle.download_gate"};
      }
    }
    return {any_accepted, ""};
  };
  return t;
}

FuzzTarget can_target() {
  FuzzTarget t;
  t.name = "can";
  t.max_input = 96;
  {
    ivn::CanFrame f;
    f.id = 0x123;
    f.data = {1, 2, 3, 4};
    t.seeds.push_back(f.encode_wire());
    f.format = ivn::CanFormat::kFd;
    f.brs = true;
    f.data.assign(12, 0xAB);
    t.seeds.push_back(f.encode_wire());
    f = {};
    f.id = 0x1ABCDE;
    f.extended = true;
    f.remote = true;
    t.seeds.push_back(f.encode_wire());
  }
  t.dictionary = {tok({0x00}), tok({0x01}), tok({0x04}), tok({0x0C}),
                  tok({0x08}), tok({0x0F}), tok({0x07, 0xFF})};
  t.execute = [](util::BytesView b) -> ExecResult {
    const auto f = ivn::CanFrame::decode_wire(b);
    if (!f) return {false, ""};
    if (!f->valid()) return {true, "can.oracle.invalid_accept"};
    const util::Bytes re = f->encode_wire();
    if (re.size() != b.size() || !std::equal(re.begin(), re.end(), b.begin())) {
      return {true, "can.oracle.roundtrip"};
    }
    // Timing accounting must hold for any accepted frame: the region plus
    // 13 trailer bits plus at most one stuff bit per four region bits, with
    // a nominal-rate share shorter than the whole frame.
    std::size_t arb = 0;
    const std::size_t wire = f->wire_bits(&arb);
    const std::size_t region = f->stuff_region_bits().size();
    if (wire < region + 13 || wire > region + 13 + (region - 1) / 4 + 1 ||
        arb >= wire) {
      return {true, "can.oracle.wire_bits"};
    }
    return {true, ""};
  };
  return t;
}

FuzzTarget secoc_target() {
  FuzzTarget t;
  t.name = "secoc";
  t.max_input = 96;
  constexpr std::uint16_t kDataId = 0x0101;
  constexpr std::uint64_t kBase = 100;
  {
    // Seeds: genuinely protected PDUs at tx counters just above the base.
    const ivn::SecOcChannel ch(fixed_key16());
    ivn::FreshnessManager fm;
    fm.set_tx(kDataId, kBase);
    t.seeds.push_back(ch.protect(kDataId, tok({0x11, 0x22, 0x33}), fm));
    t.seeds.push_back(ch.protect(kDataId, tok({}), fm));
  }
  t.execute = [](util::BytesView b) -> ExecResult {
    const ivn::SecOcChannel ch(fixed_key16());
    const ivn::SecOcConfig& cfg = ch.config();
    ivn::FreshnessManager fm;
    fm.accept_rx(kDataId, kBase);

    const auto r1 = ch.verify(kDataId, b, fm);
    if (r1.status != ivn::SecOcStatus::kOk) {
      if (fm.last_rx(kDataId) != kBase) {
        return {false, "secoc.oracle.reject_mutated_state"};
      }
      return {false, ""};
    }
    // Accepted: freshness must be strictly monotone and inside the window.
    const std::uint64_t fresh = fm.last_rx(kDataId);
    if (fresh <= kBase) return {true, "secoc.oracle.monotone"};
    if (fresh - kBase > cfg.freshness_window) {
      return {true, "secoc.oracle.window"};
    }
    // The wire MAC must be the genuine CMAC over (data id, payload, the
    // reconstructed freshness) — acceptance without it is a forgery.
    if (b.size() != r1.payload.size() + ch.overhead()) {
      return {true, "secoc.oracle.shape"};
    }
    util::Bytes mac_in;
    util::append_be(mac_in, kDataId, 2);
    mac_in.insert(mac_in.end(), r1.payload.begin(), r1.payload.end());
    util::append_be(mac_in, fresh, 8);
    const crypto::Cmac cmac(fixed_key16());
    const util::BytesView wire_mac = b.subspan(b.size() - cfg.mac_bytes);
    if (!cmac.verify(mac_in, wire_mac)) {
      return {true, "secoc.oracle.forgery"};
    }
    // Verbatim replay of an accepted PDU must be rejected.
    const auto r2 = ch.verify(kDataId, b, fm);
    if (r2.status == ivn::SecOcStatus::kOk) {
      return {true, "secoc.oracle.replay"};
    }
    return {true, ""};
  };
  return t;
}

FuzzTarget ota_target() {
  FuzzTarget t;
  t.name = "ota";
  t.max_input = 512;
  {
    util::Bytes secret(32, 0x11);
    const auto k1 = crypto::EcdsaPrivateKey::from_secret(secret);
    secret.assign(32, 0x22);
    const auto k2 = crypto::EcdsaPrivateKey::from_secret(secret);

    ota::RootMeta root;
    root.version = 3;
    root.expires.ns = 1'000'000'000ULL;
    root.roles[ota::Role::kRoot] = {1, {ota::key_id(k1.public_key())}};
    root.roles[ota::Role::kTargets] = {1, {ota::key_id(k2.public_key())}};
    root.keys[ota::key_id_hex(ota::key_id(k1.public_key()))] = k1.public_key();
    root.keys[ota::key_id_hex(ota::key_id(k2.public_key()))] = k2.public_key();
    t.seeds.push_back(root.serialize());

    ota::TargetsMeta targets;
    targets.version = 7;
    targets.expires.ns = 2'000'000'000ULL;
    ota::TargetInfo info;
    info.sha256.assign(32, 0xCD);
    info.length = 0x10000;
    info.version = 2;
    info.hardware_id = "ecu-brake";
    targets.targets["brake.img"] = info;
    info.length = 0x4000;
    info.hardware_id = "ecu-door";
    targets.targets["door.img"] = info;
    t.seeds.push_back(targets.serialize());

    ota::SnapshotMeta snap;
    snap.version = 7;
    snap.expires.ns = 2'000'000'000ULL;
    snap.targets_version = 7;
    t.seeds.push_back(snap.serialize());

    ota::TimestampMeta ts;
    ts.version = 9;
    ts.expires.ns = 3'000'000'000ULL;
    ts.snapshot_version = 7;
    const crypto::Digest d = crypto::sha256(snap.serialize());
    ts.snapshot_hash.assign(d.begin(), d.end());
    t.seeds.push_back(ts.serialize());
  }
  t.dictionary = {tok({'R'}), tok({'T'}), tok({'S'}), tok({'M'}), tok({0x04}),
                  tok({0xff, 0xff})};
  t.execute = [](util::BytesView b) -> ExecResult {
    if (b.empty()) return {false, ""};
    switch (b[0]) {
      case 'R': {
        const auto m = ota::RootMeta::parse(b);
        if (!m) return {false, ""};
        if (m->serialize() != util::Bytes(b.begin(), b.end())) {
          return {true, "ota.oracle.fixpoint.root"};
        }
        return {true, ""};
      }
      case 'T': {
        const auto m = ota::TargetsMeta::parse(b);
        if (!m) return {false, ""};
        if (m->serialize() != util::Bytes(b.begin(), b.end())) {
          return {true, "ota.oracle.fixpoint.targets"};
        }
        return {true, ""};
      }
      case 'S': {
        const auto m = ota::SnapshotMeta::parse(b);
        if (!m) return {false, ""};
        if (m->serialize() != util::Bytes(b.begin(), b.end())) {
          return {true, "ota.oracle.fixpoint.snapshot"};
        }
        return {true, ""};
      }
      case 'M': {
        const auto m = ota::TimestampMeta::parse(b);
        if (!m) return {false, ""};
        if (m->serialize() != util::Bytes(b.begin(), b.end())) {
          return {true, "ota.oracle.fixpoint.timestamp"};
        }
        return {true, ""};
      }
      default:
        return {false, ""};
    }
  };
  return t;
}

std::vector<FuzzTarget> builtin_targets() {
  return {someip_target(), uds_target(), can_target(), secoc_target(),
          ota_target()};
}

}  // namespace aseck::fuzz
