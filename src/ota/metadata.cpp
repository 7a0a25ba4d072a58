#include "ota/metadata.hpp"

#include <algorithm>
#include <set>

#include "util/coverage.hpp"

namespace aseck::ota {

namespace {

/// Bounded big-endian cursor over a byte view. Every read checks remaining
/// length; `ok` latches false on the first overrun so callers can chain
/// reads and test once.
struct Reader {
  util::BytesView b;
  std::size_t pos = 0;
  bool ok = true;

  std::size_t remaining() const { return ok ? b.size() - pos : 0; }

  std::uint8_t u8() {
    if (remaining() < 1) { ok = false; return 0; }
    return b[pos++];
  }
  std::uint64_t be(std::size_t width) {
    if (remaining() < width) { ok = false; return 0; }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v = (v << 8) | b[pos + i];
    pos += width;
    return v;
  }
  util::Bytes take(std::size_t n) {
    if (remaining() < n) { ok = false; return {}; }
    util::Bytes out(b.begin() + static_cast<std::ptrdiff_t>(pos),
                    b.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return out;
  }
  /// Bytes up to (not including) the next NUL; consumes the NUL too.
  std::string cstr() {
    std::string s;
    while (true) {
      if (remaining() < 1) { ok = false; return {}; }
      const std::uint8_t c = b[pos++];
      if (c == 0) return s;
      s.push_back(static_cast<char>(c));
    }
  }
  bool done() const { return ok && pos == b.size(); }
};

std::optional<Role> role_from_byte(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(Role::kTimestamp)) return std::nullopt;
  return static_cast<Role>(v);
}

}  // namespace

KeyId key_id(const crypto::EcdsaPublicKey& pub) {
  const crypto::Digest d = crypto::sha256(pub.to_bytes());
  KeyId out;
  std::copy(d.begin(), d.begin() + 8, out.begin());
  return out;
}

std::string key_id_hex(const KeyId& id) {
  return util::to_hex(util::BytesView(id.data(), id.size()));
}

util::Bytes TargetInfo::serialize() const {
  util::Bytes out = sha256;
  util::append_be(out, length, 8);
  util::append_be(out, version, 4);
  out.insert(out.end(), hardware_id.begin(), hardware_id.end());
  out.push_back(0);
  return out;
}

util::Bytes RootMeta::serialize() const {
  util::Bytes out;
  out.push_back('R');
  util::append_be(out, version, 4);
  util::append_be(out, expires.ns, 8);
  out.push_back(static_cast<std::uint8_t>(roles.size()));
  for (const auto& [role, rk] : roles) {
    out.push_back(static_cast<std::uint8_t>(role));
    util::append_be(out, rk.threshold, 4);
    out.push_back(static_cast<std::uint8_t>(rk.key_ids.size()));
    for (const auto& kid : rk.key_ids) {
      out.insert(out.end(), kid.begin(), kid.end());
    }
  }
  util::append_be(out, keys.size(), 2);
  for (const auto& [hex, key] : keys) {
    const util::Bytes kb = key.to_bytes();
    out.insert(out.end(), kb.begin(), kb.end());
  }
  return out;
}

std::optional<RootMeta> RootMeta::parse(util::BytesView b) {
  Reader r{b};
  if (r.u8() != 'R') {
    ASECK_COV("ota.root.bad_magic");
    return std::nullopt;
  }
  RootMeta m;
  m.version = static_cast<std::uint32_t>(r.be(4));
  m.expires.ns = static_cast<decltype(m.expires.ns)>(r.be(8));
  const std::uint8_t role_count = r.u8();
  int prev_role = -1;
  for (std::uint8_t i = 0; i < role_count && r.ok; ++i) {
    const std::uint8_t rb = r.u8();
    const auto role = role_from_byte(rb);
    // Roles must be strictly ascending: rejects duplicates and keeps the
    // serialization canonical (std::map iteration order).
    if (!role || static_cast<int>(rb) <= prev_role) {
      ASECK_COV("ota.root.bad_role");
      return std::nullopt;
    }
    prev_role = rb;
    RoleKeys rk;
    rk.threshold = static_cast<std::uint32_t>(r.be(4));
    const std::uint8_t kid_count = r.u8();
    for (std::uint8_t k = 0; k < kid_count && r.ok; ++k) {
      const util::Bytes kb = r.take(8);
      if (!r.ok) break;
      KeyId kid;
      std::copy(kb.begin(), kb.end(), kid.begin());
      rk.key_ids.push_back(kid);
    }
    m.roles.emplace(*role, std::move(rk));
  }
  const std::uint64_t key_count = r.be(2);
  std::string prev_hex;
  for (std::uint64_t i = 0; i < key_count && r.ok; ++i) {
    const util::Bytes kb = r.take(65);
    if (!r.ok) break;
    const auto key = crypto::EcdsaPublicKey::from_bytes(kb);
    if (!key) {
      ASECK_COV("ota.root.bad_key");
      return std::nullopt;
    }
    // The map key is not serialized — it is always the keyid hex of the key
    // itself, so the parser recomputes it. Strictly ascending hex keeps the
    // round trip canonical (and rejects duplicate keys).
    const std::string hex = key_id_hex(key_id(*key));
    if (!prev_hex.empty() && hex <= prev_hex) {
      ASECK_COV("ota.root.key_order");
      return std::nullopt;
    }
    prev_hex = hex;
    m.keys.emplace(hex, *key);
  }
  if (!r.done()) {
    ASECK_COV("ota.root.bad_len");
    return std::nullopt;
  }
  ASECK_COV("ota.root.ok");
  return m;
}

util::Bytes TargetsMeta::serialize() const {
  util::Bytes out;
  out.push_back('T');
  util::append_be(out, version, 4);
  util::append_be(out, expires.ns, 8);
  for (const auto& [name, info] : targets) {
    out.insert(out.end(), name.begin(), name.end());
    out.push_back(0);
    const util::Bytes ib = info.serialize();
    out.insert(out.end(), ib.begin(), ib.end());
  }
  return out;
}

std::optional<TargetsMeta> TargetsMeta::parse(util::BytesView b) {
  Reader r{b};
  if (r.u8() != 'T') {
    ASECK_COV("ota.targets.bad_magic");
    return std::nullopt;
  }
  TargetsMeta m;
  m.version = static_cast<std::uint32_t>(r.be(4));
  m.expires.ns = static_cast<decltype(m.expires.ns)>(r.be(8));
  std::string prev_name;
  bool first = true;
  while (r.ok && r.remaining() > 0) {
    const std::string name = r.cstr();
    if (!first && name <= prev_name) {
      ASECK_COV("ota.targets.name_order");
      return std::nullopt;
    }
    first = false;
    prev_name = name;
    TargetInfo info;
    info.sha256 = r.take(32);
    info.length = r.be(8);
    info.version = static_cast<std::uint32_t>(r.be(4));
    info.hardware_id = r.cstr();
    if (!r.ok) break;
    m.targets.emplace(name, std::move(info));
  }
  if (!r.done()) {
    ASECK_COV("ota.targets.bad_len");
    return std::nullopt;
  }
  ASECK_COV("ota.targets.ok");
  return m;
}

util::Bytes SnapshotMeta::serialize() const {
  util::Bytes out;
  out.push_back('S');
  util::append_be(out, version, 4);
  util::append_be(out, expires.ns, 8);
  util::append_be(out, targets_version, 4);
  return out;
}

std::optional<SnapshotMeta> SnapshotMeta::parse(util::BytesView b) {
  Reader r{b};
  if (r.u8() != 'S') {
    ASECK_COV("ota.snapshot.bad_magic");
    return std::nullopt;
  }
  SnapshotMeta m;
  m.version = static_cast<std::uint32_t>(r.be(4));
  m.expires.ns = static_cast<decltype(m.expires.ns)>(r.be(8));
  m.targets_version = static_cast<std::uint32_t>(r.be(4));
  if (!r.done()) {
    ASECK_COV("ota.snapshot.bad_len");
    return std::nullopt;
  }
  ASECK_COV("ota.snapshot.ok");
  return m;
}

util::Bytes TimestampMeta::serialize() const {
  util::Bytes out;
  out.push_back('M');
  util::append_be(out, version, 4);
  util::append_be(out, expires.ns, 8);
  util::append_be(out, snapshot_version, 4);
  out.insert(out.end(), snapshot_hash.begin(), snapshot_hash.end());
  return out;
}

std::optional<TimestampMeta> TimestampMeta::parse(util::BytesView b) {
  Reader r{b};
  if (r.u8() != 'M') {
    ASECK_COV("ota.timestamp.bad_magic");
    return std::nullopt;
  }
  TimestampMeta m;
  m.version = static_cast<std::uint32_t>(r.be(4));
  m.expires.ns = static_cast<decltype(m.expires.ns)>(r.be(8));
  m.snapshot_version = static_cast<std::uint32_t>(r.be(4));
  // The snapshot hash is always SHA-256; anything but exactly 32 trailing
  // bytes is malformed.
  m.snapshot_hash = r.take(32);
  if (!r.done()) {
    ASECK_COV("ota.timestamp.bad_len");
    return std::nullopt;
  }
  ASECK_COV("ota.timestamp.ok");
  return m;
}

Signature sign_payload(const crypto::EcdsaPrivateKey& key,
                       util::BytesView payload) {
  Signature s;
  s.keyid = key_id(key.public_key());
  s.sig = key.sign(payload);
  return s;
}

bool verify_threshold(util::BytesView payload,
                      const std::vector<Signature>& sigs,
                      const RootMeta::RoleKeys& authorized,
                      const std::map<std::string, crypto::EcdsaPublicKey>& keys,
                      crypto::VerifyEngine* engine) {
  std::set<std::string> counted;  // distinct authorized keyids that verified
  for (const Signature& s : sigs) {
    const std::string hex = key_id_hex(s.keyid);
    if (counted.count(hex)) continue;
    // Is the key authorized for this role?
    const bool authorized_key =
        std::find(authorized.key_ids.begin(), authorized.key_ids.end(),
                  s.keyid) != authorized.key_ids.end();
    if (!authorized_key) continue;
    const auto kit = keys.find(hex);
    if (kit == keys.end()) continue;
    const bool ok = engine ? engine->verify(kit->second, payload, s.sig)
                           : crypto::ecdsa_verify(kit->second, payload, s.sig);
    if (ok) {
      counted.insert(hex);
    }
  }
  return counted.size() >= authorized.threshold;
}

}  // namespace aseck::ota
