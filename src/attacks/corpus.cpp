#include "attacks/corpus.hpp"

#include <algorithm>

#include "ivn/secoc.hpp"

namespace aseck::attacks {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Strict uint64 parse (digits only, non-empty, no overflow past the field's
/// use sites — corpus numbers are small).
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s.size() > 19) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = line.find(sep, pos);
    if (next == std::string::npos) {
      out.push_back(line.substr(pos));
      return out;
    }
    out.push_back(line.substr(pos, next - pos));
    pos = next + 1;
  }
}

util::Bytes secoc_replay_pdu() {
  util::Bytes key(16);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 7));
  }
  const ivn::SecOcChannel ch(key);
  ivn::FreshnessManager fm;
  fm.set_tx(0x0101, 100);
  return ch.protect(0x0101, util::Bytes{0x11, 0x22, 0x33}, fm);
}

}  // namespace

const char* attack_class_name(AttackClass c) {
  switch (c) {
    case AttackClass::kUdsSecurityBypass: return "uds_security_bypass";
    case AttackClass::kUdsIntegerOverflow: return "integer_overflow";
    case AttackClass::kCanDlcOverflow: return "dlc_overflow";
    case AttackClass::kFirmwareHeaderOverflow: return "firmware_header_overflow";
    case AttackClass::kMalformedFrame: return "malformed_frame";
    case AttackClass::kReplay: return "replay";
    case AttackClass::kFlood: return "flood";
    case AttackClass::kSpoof: return "spoof";
  }
  return "?";
}

std::optional<AttackClass> attack_class_from_name(const std::string& name) {
  for (const AttackClass c :
       {AttackClass::kUdsSecurityBypass, AttackClass::kUdsIntegerOverflow,
        AttackClass::kCanDlcOverflow, AttackClass::kFirmwareHeaderOverflow,
        AttackClass::kMalformedFrame, AttackClass::kReplay, AttackClass::kFlood,
        AttackClass::kSpoof}) {
    if (name == attack_class_name(c)) return c;
  }
  return std::nullopt;
}

const char* attack_protocol_name(AttackProtocol p) {
  switch (p) {
    case AttackProtocol::kCan: return "can";
    case AttackProtocol::kUds: return "uds";
    case AttackProtocol::kSomeIp: return "someip";
    case AttackProtocol::kSecOc: return "secoc";
    case AttackProtocol::kOta: return "ota";
  }
  return "?";
}

std::optional<AttackProtocol> attack_protocol_from_name(const std::string& n) {
  for (const AttackProtocol p :
       {AttackProtocol::kCan, AttackProtocol::kUds, AttackProtocol::kSomeIp,
        AttackProtocol::kSecOc, AttackProtocol::kOta}) {
    if (n == attack_protocol_name(p)) return p;
  }
  return std::nullopt;
}

std::vector<const ScenarioEntry*> ScenarioCorpus::by_class(AttackClass c) const {
  std::vector<const ScenarioEntry*> out;
  for (const ScenarioEntry& e : entries_) {
    if (e.cls == c) out.push_back(&e);
  }
  return out;
}

std::vector<AttackClass> ScenarioCorpus::classes() const {
  std::vector<AttackClass> out;
  for (const AttackClass c :
       {AttackClass::kUdsSecurityBypass, AttackClass::kUdsIntegerOverflow,
        AttackClass::kCanDlcOverflow, AttackClass::kFirmwareHeaderOverflow,
        AttackClass::kMalformedFrame, AttackClass::kReplay, AttackClass::kFlood,
        AttackClass::kSpoof}) {
    if (!by_class(c).empty()) out.push_back(c);
  }
  return out;
}

std::string ScenarioCorpus::serialize() const {
  std::string out = "aseck-corpus v1\n";
  for (const ScenarioEntry& e : entries_) {
    out += e.id;
    out += '|';
    out += attack_class_name(e.cls);
    out += '|';
    out += attack_protocol_name(e.protocol);
    out += '|';
    out += std::to_string(e.can_id);
    out += '|';
    out += std::to_string(e.period.ns);
    out += '|';
    out += std::to_string(e.repeat);
    out += '|';
    out += util::to_hex(e.payload);
    out += '|';
    out += e.origin;
    out += '|';
    out += e.note;
    out += '\n';
  }
  return out;
}

std::optional<ScenarioCorpus> ScenarioCorpus::parse(const std::string& text) {
  const std::vector<std::string> lines = split(text, '\n');
  if (lines.empty() || lines[0] != "aseck-corpus v1") return std::nullopt;
  ScenarioCorpus corpus;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;  // trailing newline / blank lines
    const std::vector<std::string> f = split(line, '|');
    if (f.size() != 9) return std::nullopt;
    ScenarioEntry e;
    e.id = f[0];
    if (e.id.empty()) return std::nullopt;
    const auto cls = attack_class_from_name(f[1]);
    const auto proto = attack_protocol_from_name(f[2]);
    const auto can_id = parse_u64(f[3]);
    const auto period = parse_u64(f[4]);
    const auto repeat = parse_u64(f[5]);
    if (!cls || !proto || !can_id || !period || !repeat ||
        *can_id > 0x1FFFFFFF || *repeat == 0) {
      return std::nullopt;
    }
    e.cls = *cls;
    e.protocol = *proto;
    e.can_id = static_cast<std::uint32_t>(*can_id);
    e.period = util::SimTime::from_ns(*period);
    e.repeat = static_cast<std::uint32_t>(*repeat);
    try {
      e.payload = util::from_hex(f[6]);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
    e.origin = f[7];
    e.note = f[8];
    corpus.add(std::move(e));
  }
  return corpus;
}

ScenarioCorpus ScenarioCorpus::builtin() {
  ScenarioCorpus c;

  // --- Frozen V-matrix payloads --------------------------------------------
  c.add({"v9-uds-key-without-seed",
         AttackClass::kUdsSecurityBypass,
         AttackProtocol::kUds,
         0x7E0,
         util::SimTime::from_us(500),
         3,
         {0x27, 0x02, 0x00, 0x00, 0x00, 0x00},
         "frozen:v9",
         "sendKey with an all-zero key and no prior seed"});
  c.add({"v11-uds-download-size-wrap",
         AttackClass::kUdsIntegerOverflow,
         AttackProtocol::kUds,
         0x7E0,
         util::SimTime::from_us(500),
         1,
         {0x34, 0x00, 0x44, 0x00, 0x00, 0x10, 0x00, 0xFF, 0xFF, 0xFF, 0xFF},
         "frozen:v11",
         "RequestDownload memorySize 0xFFFFFFFF (2^32 wrap bait)"});
  {
    // V10: classic frame declaring DLC 15 over an 8-byte body — a lenient
    // decoder reads 15 bytes from an 8-byte buffer.
    ScenarioEntry e;
    e.id = "v10-can-dlc-overflow";
    e.cls = AttackClass::kCanDlcOverflow;
    e.protocol = AttackProtocol::kCan;
    e.can_id = 0x123;
    e.payload = {0x00, 0x00, 0x00, 0x01, 0x23, 0x0F,
                 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
    e.origin = "frozen:v10";
    e.note = "classic CAN wire frame with dlc=15";
    c.add(std::move(e));
  }
  {
    // V12: targets metadata whose entry declares a huge image length and
    // truncates mid-header.
    ScenarioEntry e;
    e.id = "v12-ota-header-overflow";
    e.cls = AttackClass::kFirmwareHeaderOverflow;
    e.protocol = AttackProtocol::kOta;
    e.can_id = 0x7E2;
    util::Bytes b;
    b.push_back('T');
    util::append_be(b, 7, 4);                      // version
    util::append_be(b, 2'000'000'000ULL, 8);       // expires
    const char* name = "brake.img";
    b.insert(b.end(), name, name + 9);
    b.push_back(0);
    b.insert(b.end(), 32, 0xCD);                   // sha256
    util::append_be(b, ~std::uint64_t{0}, 8);      // length = 2^64-1
    // truncated: version / hardware id missing
    e.payload = std::move(b);
    e.origin = "frozen:v12";
    e.note = "targets entry with 2^64-1 image length, truncated header";
    c.add(std::move(e));
  }
  c.add({"v4-secoc-replay",
         AttackClass::kReplay,
         AttackProtocol::kSecOc,
         0x101,
         util::SimTime::from_us(500),
         2,
         secoc_replay_pdu(),
         "frozen:v4",
         "genuine protected PDU transmitted twice"});
  c.add({"v1-can-flood",
         AttackClass::kFlood,
         AttackProtocol::kCan,
         0x000,
         util::SimTime::from_us(100),
         200,
         {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
         "frozen:v1",
         "highest-priority id flooded at 10 kHz"});
  c.add({"v3-can-spoof",
         AttackClass::kSpoof,
         AttackProtocol::kCan,
         0x100,
         util::SimTime::from_ms(1),
         20,
         {0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
         "frozen:v3",
         "legitimate periodic id with attacker-chosen payload"});

  // --- Minimized fuzzer reproducers (each pinned by a regression test) -----
  c.add({"fz-someip-len-wrap",
         AttackClass::kUdsIntegerOverflow,
         AttackProtocol::kSomeIp,
         0x7E1,
         util::SimTime::from_us(500),
         1,
         {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF,
          0xFF, 0xF6},
         "fuzzer:someip",
         "header length 0xFFFFFFF6 wraps 13+len in 32-bit arithmetic"});
  c.add({"fz-uds-alfid-smuggle",
         AttackClass::kUdsIntegerOverflow,
         AttackProtocol::kUds,
         0x7E0,
         util::SimTime::from_us(500),
         1,
         {0x34, 0x00, 0x88},
         "fuzzer:uds",
         "RequestDownload alfid 0x88: 8-byte fields on a 32-bit ECU"});
  c.add({"fz-uds-truncated-key",
         AttackClass::kMalformedFrame,
         AttackProtocol::kUds,
         0x7E0,
         util::SimTime::from_us(500),
         1,
         {0x27, 0x02, 0x01},
         "fuzzer:uds",
         "sendKey one byte long: must reject with NRC 0x13, not clamp"});
  c.add({"fz-can-brs-on-classic",
         AttackClass::kMalformedFrame,
         AttackProtocol::kCan,
         0x123,
         util::SimTime::from_us(500),
         1,
         {0x08, 0x00, 0x00, 0x01, 0x23, 0x00},
         "fuzzer:can",
         "BRS flag without FD on the wire encoding"});
  c.add({"fz-ota-root-truncated",
         AttackClass::kMalformedFrame,
         AttackProtocol::kOta,
         0x7E2,
         util::SimTime::from_us(500),
         1,
         {'R'},
         "fuzzer:ota",
         "root metadata cut after the magic byte"});
  return c;
}

CorpusReplayer::CorpusReplayer(sim::Scheduler& sched, ivn::CanBus& bus,
                               std::string name,
                               const sim::Telemetry& telemetry)
    : ivn::CanNode(std::move(name)), sched_(sched), bus_(bus),
      trace_(this->name(), {}, telemetry) {
  bus_.attach(this);
}

void CorpusReplayer::on_frame(const ivn::CanFrame& frame, sim::SimTime at) {
  (void)frame;
  (void)at;  // the replayer only transmits
}

util::SimTime CorpusReplayer::schedule(const ScenarioEntry& entry,
                                       util::SimTime start) {
  trace_.record(start, k_schedule_,
                entry.id + " class=" + attack_class_name(entry.cls));
  // Chunk the payload ISO-TP-style into classic 8-byte frames.
  std::vector<util::Bytes> chunks;
  if (entry.payload.empty()) {
    chunks.push_back({});
  } else {
    for (std::size_t pos = 0; pos < entry.payload.size(); pos += 8) {
      const std::size_t n = std::min<std::size_t>(8, entry.payload.size() - pos);
      chunks.emplace_back(entry.payload.begin() + static_cast<std::ptrdiff_t>(pos),
                          entry.payload.begin() +
                              static_cast<std::ptrdiff_t>(pos + n));
    }
  }
  util::SimTime at = start;
  for (std::uint32_t r = 0; r < entry.repeat; ++r) {
    for (const util::Bytes& chunk : chunks) {
      ivn::CanFrame f;
      f.id = entry.can_id;
      f.extended = entry.can_id > 0x7FF;
      f.data = chunk;
      const std::string id = entry.id;
      sched_.schedule_at(at, [this, f = std::move(f), id] {
        if (bus_.send(this, f)) {
          ++frames_sent_;
          trace_.record(sched_.now(), k_tx_, id);
        } else {
          ++frames_rejected_;
          trace_.record(sched_.now(), k_reject_, id);
        }
      });
      at += entry.period;
    }
  }
  return at;
}

util::SimTime CorpusReplayer::schedule_all(const ScenarioCorpus& corpus,
                                           util::SimTime start,
                                           util::SimTime gap) {
  util::SimTime at = start;
  for (const ScenarioEntry& e : corpus.entries()) {
    at = schedule(e, at) + gap;
  }
  return at;
}

std::uint64_t timeline_digest(const sim::TraceBus& bus) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const sim::TraceEvent& e = bus.event(i);
    h = fnv_u64(h, e.at.ns);
    h = fnv_u64(h, e.seq);
    const std::string& comp = bus.name(e.component);
    const std::string& kind = bus.name(e.kind);
    h = fnv_bytes(h, comp.data(), comp.size());
    h = fnv_bytes(h, kind.data(), kind.size());
    h = fnv_bytes(h, e.detail.data(), e.detail.size());
  }
  return h;
}

}  // namespace aseck::attacks
