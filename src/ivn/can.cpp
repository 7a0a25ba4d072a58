#include "ivn/can.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/coverage.hpp"
#include "util/crc.hpp"

namespace aseck::ivn {

namespace {

constexpr std::size_t kFdDlcSizes[16] = {0, 1,  2,  3,  4,  5,  6,  7,
                                         8, 12, 16, 20, 24, 32, 48, 64};

/// DLC code of the payload length; 0 for a length that is no FD size
/// (valid() rejects such frames).
std::uint8_t dlc_code(const CanFrame& f) {
  if (f.format == CanFormat::kClassic) {
    return static_cast<std::uint8_t>(f.data.size());
  }
  for (std::uint8_t i = 0; i < 16; ++i) {
    if (kFdDlcSizes[i] == f.data.size()) return i;
  }
  return 0;
}

}  // namespace

std::size_t CanFrame::fd_round_up(std::size_t n) {
  for (std::size_t s : kFdDlcSizes) {
    if (n <= s) return s;
  }
  return 64;
}

util::Bytes CanFrame::encode_wire() const {
  util::Bytes out;
  out.reserve(6 + data.size());
  std::uint8_t flags = 0;
  if (extended) flags |= 0x01;
  if (remote) flags |= 0x02;
  if (format == CanFormat::kFd) flags |= 0x04;
  if (brs) flags |= 0x08;
  out.push_back(flags);
  util::append_be(out, id, 4);
  out.push_back(dlc_code(*this));
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::optional<CanFrame> CanFrame::decode_wire(util::BytesView b) {
  if (b.size() < 6) {
    ASECK_COV("can.decode.too_short");
    return std::nullopt;
  }
  const std::uint8_t flags = b[0];
  if ((flags & ~0x0Fu) != 0) {
    ASECK_COV("can.decode.bad_flags");
    return std::nullopt;
  }
  CanFrame f;
  f.extended = (flags & 0x01) != 0;
  f.remote = (flags & 0x02) != 0;
  f.format = (flags & 0x04) != 0 ? CanFormat::kFd : CanFormat::kClassic;
  f.brs = (flags & 0x08) != 0;
  f.id = util::load_be32(b.data() + 1);
  if (f.id > (f.extended ? 0x1fffffffu : 0x7ffu)) {
    ASECK_COV("can.decode.bad_id");
    return std::nullopt;
  }
  const std::uint8_t dlc = b[5];
  std::size_t len;
  if (f.format == CanFormat::kClassic) {
    // The V10 class: a lenient decoder treats dlc 9..15 as "read 9..15
    // bytes" from an 8-byte buffer. Strictly reject instead.
    if (dlc > 8) {
      ASECK_COV("can.decode.dlc_overflow");
      return std::nullopt;
    }
    if (f.brs) {
      ASECK_COV("can.decode.brs_classic");
      return std::nullopt;
    }
    len = dlc;
  } else {
    if (dlc > 15 || f.remote) {
      ASECK_COV("can.decode.bad_fd");
      return std::nullopt;
    }
    len = kFdDlcSizes[dlc];
  }
  if (f.remote && len != 0) {
    ASECK_COV("can.decode.remote_data");
    return std::nullopt;
  }
  // The payload must be exactly the DLC-declared length: no trailing bytes,
  // no short reads silently zero-extended.
  if (b.size() - 6 != len) {
    ASECK_COV("can.decode.len_mismatch");
    return std::nullopt;
  }
  f.data.assign(b.begin() + 6, b.end());
  ASECK_COV("can.decode.ok");
  return f;
}

bool CanFrame::valid() const {
  const std::uint32_t max_id = extended ? 0x1fffffffu : 0x7ffu;
  if (id > max_id) return false;
  if (format == CanFormat::kClassic) {
    return data.size() <= 8 && (!remote || data.empty());
  }
  // FD: no remote frames; payload must be an exact FD size.
  return !remote && data.size() <= 64 && fd_round_up(data.size()) == data.size();
}

namespace {

// Longest stuff region: extended header through DLC (39 bits), 64 data
// bytes and CRC-21.
constexpr std::size_t kMaxRegionBits = 39 + 64 * 8 + 21;
// CRC delimiter + ACK slot + ACK delimiter + EOF(7) + IFS(3).
constexpr std::size_t kTrailerBits = 1 + 1 + 1 + 7 + 3;

/// The stuff region (SOF through CRC) packed MSB-first; bits past `n` are 0.
struct RegionBits {
  std::array<std::uint8_t, (kMaxRegionBits + 7) / 8> bytes{};
  std::size_t n = 0;

  /// Appends the low `width` (< 32) bits of `v`, most significant first.
  void put(std::uint32_t v, unsigned width) {
    const unsigned shift = static_cast<unsigned>(n % 8);
    std::uint64_t w = static_cast<std::uint64_t>(v & ((1u << width) - 1))
                      << (64 - width - shift);
    std::uint8_t* p = bytes.data() + n / 8;
    for (unsigned done = 0; done < shift + width; done += 8, w <<= 8) {
      *p++ |= static_cast<std::uint8_t>(w >> 56);
    }
    n += width;
  }
  bool bit(std::size_t i) const { return (bytes[i / 8] >> (7 - i % 8)) & 1u; }
};

/// Encodes SOF..CRC. The CRC covers the bits before it, zero-padded to a
/// byte boundary, i.e. the leading bytes of the buffer as they stand.
RegionBits encode_region(const CanFrame& f) {
  if (!f.valid()) {
    throw std::invalid_argument("CanFrame: invalid frame has no wire encoding");
  }
  const bool fd = f.format == CanFormat::kFd;
  RegionBits r;
  r.put(0, 1);  // SOF (dominant)
  if (!f.extended) {
    r.put(f.id, 11);
    r.put(f.remote, 1);  // RTR
    r.put(0, 1);         // IDE
    r.put(fd, 1);        // r0 / FDF
  } else {
    r.put(f.id >> 18, 11);
    r.put(0b11, 2);  // SRR, IDE
    r.put(f.id & 0x3ffff, 18);
    r.put(f.remote, 1);
    r.put(0, 1);  // r1
    r.put(fd, 1);
  }
  r.put(dlc_code(f), 4);
  for (std::uint8_t b : f.data) r.put(b, 8);
  const util::BytesView covered(r.bytes.data(), (r.n + 7) / 8);
  if (!fd) {
    r.put(util::crc15_can(covered), 15);
  } else if (f.data.size() <= 16) {
    r.put(util::crc17_canfd(covered), 17);
  } else {
    r.put(util::crc21_canfd(covered), 21);
  }
  return r;
}

// Bit-stuffing state: the last bit on the wire (bit 2) and the length of its
// run minus one (bits 0-1). A run never rests at 5: the fifth equal bit
// inserts the complement, which starts a new run of one.
constexpr unsigned stuff_step(unsigned state, unsigned bit, unsigned& stuffed) {
  const unsigned last = state >> 2;
  if (bit != last) return bit << 2;
  if ((state & 3u) < 3u) return state + 1;
  ++stuffed;
  return (last ^ 1u) << 2;
}

/// For each of the 8 states and 256 input bytes: the stuff bits the byte
/// inserts (bits 3+) and the state after it (bits 0-2).
constexpr std::array<std::uint8_t, 8 * 256> kStuffTable = []() consteval {
  std::array<std::uint8_t, 8 * 256> table{};
  for (unsigned state = 0; state < 8; ++state) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      unsigned s = state, stuffed = 0;
      for (int i = 7; i >= 0; --i) s = stuff_step(s, (byte >> i) & 1u, stuffed);
      table[state * 256 + byte] = static_cast<std::uint8_t>(stuffed << 3 | s);
    }
  }
  return table;
}();

/// Stuff bits inserted into the region. The state starts as a recessive run
/// of one, so the dominant SOF begins a fresh run.
std::size_t count_stuff_bits(const RegionBits& r) {
  unsigned state = 1u << 2;
  std::size_t stuffed = 0;
  const std::size_t whole = r.n / 8;
  for (std::size_t i = 0; i < whole; ++i) {
    const std::uint8_t e = kStuffTable[state * 256 + r.bytes[i]];
    stuffed += e >> 3;
    state = e & 7u;
  }
  unsigned tail = 0;
  for (std::size_t i = whole * 8; i < r.n; ++i) {
    state = stuff_step(state, r.bit(i), tail);
  }
  return stuffed + tail;
}

}  // namespace

std::vector<bool> CanFrame::stuff_region_bits() const {
  const RegionBits r = encode_region(*this);
  std::vector<bool> bits(r.n);
  for (std::size_t i = 0; i < r.n; ++i) bits[i] = r.bit(i);
  return bits;
}

std::size_t CanFrame::wire_bits(std::size_t* arbitration_bits) const {
  const RegionBits r = encode_region(*this);
  if (arbitration_bits) {
    // For FD/BRS: everything before the DLC region is nominal-rate. We
    // approximate the nominal-rate portion as the arbitration field
    // (SOF..IDE) which is close enough for load studies: ~30 bits for
    // base, ~50 for extended, plus the trailer which is also nominal.
    *arbitration_bits = (extended ? 50 : 30) + kTrailerBits;
  }
  return r.n + count_stuff_bits(r) + kTrailerBits;
}

CanBus::CanBus(Scheduler& sched, std::string name, std::uint64_t bitrate_bps,
               std::uint64_t data_bitrate_bps,
               const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      bitrate_(bitrate_bps),
      data_bitrate_(data_bitrate_bps ? data_bitrate_bps : bitrate_bps),
      trace_(name_, "can." + name_ + ".", telemetry) {
  if (bitrate_ == 0) throw std::invalid_argument("CanBus: zero bitrate");
}

CanBusStats CanBus::stats() const {
  CanBusStats s;
  s.frames_ok = c_frames_ok_.value();
  s.frames_error = c_frames_error_.value();
  s.bits_on_wire = c_bits_on_wire_.value();
  s.busy_time = SimTime::from_ns(c_busy_ns_.value());
  return s;
}

void CanBus::attach(CanNode* node) {
  if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) {
    nodes_.push_back(node);
  }
}

void CanBus::detach(CanNode* node) {
  const auto it = recovery_timers_.find(node);
  if (it != recovery_timers_.end()) {
    sched_.cancel(it->second);
    recovery_timers_.erase(it);
  }
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node), nodes_.end());
}

SimTime CanBus::frame_time(const CanFrame& frame) const {
  std::size_t arb_bits = 0;
  const std::size_t total = frame.wire_bits(&arb_bits);
  return frame_time(frame, total, arb_bits);
}

SimTime CanBus::frame_time(const CanFrame& frame, std::size_t total,
                           std::size_t arb_bits) const {
  if (frame.format == CanFormat::kFd && frame.brs && data_bitrate_ > bitrate_) {
    const std::size_t data_bits = total > arb_bits ? total - arb_bits : 0;
    const double secs = static_cast<double>(arb_bits) / static_cast<double>(bitrate_) +
                        static_cast<double>(data_bits) / static_cast<double>(data_bitrate_);
    return SimTime::from_seconds_f(secs);
  }
  return SimTime::from_seconds_f(static_cast<double>(total) /
                                 static_cast<double>(bitrate_));
}

bool CanBus::send(CanNode* node, CanFrame frame) {
  if (!frame.valid()) return false;
  if (node->state_ == CanNodeState::kBusOff) return false;
  node->tx_queue_.push_back(std::move(frame));
  if (!busy_) try_start_tx();
  return true;
}

void CanBus::try_start_tx() {
  if (busy_) return;
  // Whole-bus fault window (harness-injected transceiver/wiring outage):
  // nothing transmits; queued frames resume on the next send after the
  // window clears.
  if (fault_port_ && fault_port_->down()) return;
  // Arbitration: among all nodes with pending frames, the lowest ID wins.
  // Extended IDs lose to base IDs with the same leading bits; comparing the
  // numeric ID with the extended flag as tie-break captures the priority
  // semantics for distinct IDs.
  CanNode* winner = nullptr;
  for (CanNode* node : nodes_) {
    if (node->tx_queue_.empty() || node->state_ == CanNodeState::kBusOff) continue;
    if (!winner) {
      winner = node;
      continue;
    }
    const CanFrame& a = node->tx_queue_.front();
    const CanFrame& b = winner->tx_queue_.front();
    if (a.id < b.id || (a.id == b.id && !a.extended && b.extended)) {
      winner = node;
    }
  }
  if (!winner) return;
  // Injected frame loss: the frame vanishes before arbitration completes
  // (models a wiring glitch eating the frame without an error flag).
  if (fault_port_ && fault_port_->roll_drop()) {
    winner->tx_queue_.pop_front();
    c_frames_dropped_fault_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_fault_drop_, winner->name());
    try_start_tx();
    return;
  }
  busy_ = true;
  CanFrame frame = winner->tx_queue_.front();
  // Injected malformed frame: the payload is replaced by an attack-corpus
  // entry (clamped to a legal length for the format, so the frame still
  // serializes). Unlike corrupt, the frame is *delivered* — this is how
  // chaos campaigns feed fuzzer-found parser inputs to live receivers.
  if (fault_port_) {
    if (const util::Bytes* payload = fault_port_->roll_malformed()) {
      const std::size_t cap = frame.format == CanFormat::kFd ? 64 : 8;
      frame.remote = false;
      frame.data.assign(payload->begin(),
                        payload->begin() + static_cast<std::ptrdiff_t>(
                                               std::min(payload->size(), cap)));
      if (frame.format == CanFormat::kFd) {
        frame.data.resize(CanFrame::fd_round_up(frame.data.size()), 0);
      }
      c_frames_malformed_.inc();
      ASECK_TRACE(trace_, sched_.now(), k_fault_malformed_, winner->name());
    }
  }
  std::size_t arb_bits = 0;
  const std::size_t bits = frame.wire_bits(&arb_bits);
  const SimTime duration = frame_time(frame, bits, arb_bits);
  const bool errored = (error_injector_ && error_injector_(frame, *winner)) ||
                       (fault_port_ && fault_port_->roll_corrupt());
  ASECK_TRACE(trace_, sched_.now(), errored ? k_tx_error_start_ : k_tx_start_,
              winner->name());
  // An errored frame aborts after the error flag (~ error flag + delimiter +
  // IFS ~= 17 bits); model as a fixed fraction of the frame.
  SimTime busy_for =
      errored ? SimTime::from_seconds_f(
                    static_cast<double>(bits / 4 + 17) /
                    static_cast<double>(bitrate_))
              : duration;
  // Injected delay: the medium is disturbed (retransmission-after-noise),
  // holding the bus longer and delivering the frame late.
  if (fault_port_) busy_for += fault_port_->roll_delay();
  c_busy_ns_.inc(busy_for.ns);
  c_bits_on_wire_.inc(bits);
  sched_.schedule_in(busy_for, [this, winner, frame, errored] {
    finish_tx(winner, frame, errored);
  });
}

void CanBus::finish_tx(CanNode* node, const CanFrame& frame, bool errored) {
  busy_ = false;
  if (errored) {
    c_frames_error_.inc();
    bump_tx_error(node);
    ASECK_TRACE(trace_, sched_.now(), k_tx_error_, node->name());
    // Frame stays at queue head for retransmission unless the node went
    // bus-off (then the queue is frozen).
    if (node->state_ == CanNodeState::kBusOff) {
      node->tx_queue_.clear();
    }
  } else {
    c_frames_ok_.inc();
    if (!node->tx_queue_.empty()) node->tx_queue_.pop_front();
    // Successful transmission decrements TEC.
    node->tec_ = std::max(0, node->tec_ - 1);
    if (node->state_ == CanNodeState::kErrorPassive && node->tec_ < 128) {
      node->state_ = CanNodeState::kErrorActive;
    }
    ASECK_TRACE(trace_, sched_.now(), k_tx_, node->name());
    const SimTime at = sched_.now();
    for (CanNode* rx : nodes_) {
      if (rx != node && rx->state_ != CanNodeState::kBusOff) {
        rx->on_frame(frame, at);
      }
    }
    node->on_tx_done(frame, at);
    // Injected duplicate: receivers see the frame a second time (replay /
    // echo on the wire) — the attack primitive replay detectors train on.
    if (fault_port_ && fault_port_->roll_duplicate()) {
      c_frames_duplicated_.inc();
      ASECK_TRACE(trace_, sched_.now(), k_fault_dup_, node->name());
      for (CanNode* rx : nodes_) {
        if (rx != node && rx->state_ != CanNodeState::kBusOff) {
          rx->on_frame(frame, at);
        }
      }
    }
  }
  try_start_tx();
}

void CanBus::bump_tx_error(CanNode* node) {
  node->tec_ += 8;  // bit error during transmission
  if (node->tec_ > 255) {
    node->state_ = CanNodeState::kBusOff;
    ++bus_offs_;
    ASECK_TRACE(trace_, sched_.now(), k_bus_off_, node->name());
    node->on_bus_off(sched_.now());
    // Automatic recovery: after the configured delay (standing in for the
    // 128x11-recessive-bit sequence plus host policy) the node rejoins.
    if (auto_recovery_.ns != 0 && !recovery_timers_.count(node)) {
      recovery_timers_[node] =
          sched_.schedule_after(auto_recovery_, [this, node] {
            recovery_timers_.erase(node);
            if (node->state_ == CanNodeState::kBusOff) recover(node);
          });
    }
  } else if (node->tec_ > 127) {
    node->state_ = CanNodeState::kErrorPassive;
  }
}

void CanBus::recover(CanNode* node) {
  const auto it = recovery_timers_.find(node);
  if (it != recovery_timers_.end()) {
    sched_.cancel(it->second);
    recovery_timers_.erase(it);
  }
  node->tec_ = 0;
  node->state_ = CanNodeState::kErrorActive;
  ASECK_TRACE(trace_, sched_.now(), k_recover_, node->name());
  try_start_tx();
}

}  // namespace aseck::ivn
