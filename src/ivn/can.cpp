#include "ivn/can.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/coverage.hpp"
#include "util/crc.hpp"

namespace aseck::ivn {

std::size_t CanFrame::fd_round_up(std::size_t n) {
  static constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,
                                           8,  12, 16, 20, 24, 32, 48, 64};
  for (std::size_t s : kSizes) {
    if (n <= s) return s;
  }
  return 64;
}

namespace {
constexpr std::size_t kFdDlcSizes[16] = {0, 1,  2,  3,  4,  5,  6,  7,
                                         8, 12, 16, 20, 24, 32, 48, 64};
}  // namespace

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
  std::uint8_t dlc = 0;
  if (format == CanFormat::kClassic) {
    dlc = static_cast<std::uint8_t>(data.size());
  } else {
    for (std::uint8_t i = 0; i < 16; ++i) {
      if (kFdDlcSizes[i] == data.size()) {
        dlc = i;
        break;
      }
    }
  }
  out.push_back(dlc);
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

std::vector<bool> CanFrame::stuff_region_bits() const {
  std::vector<bool> bits;
  bits.push_back(false);  // SOF (dominant)
  auto push_field = [&bits](std::uint32_t v, int width) {
    for (int i = width - 1; i >= 0; --i) bits.push_back((v >> i) & 1u);
  };
  if (!extended) {
    push_field(id, 11);
    bits.push_back(remote);  // RTR
    bits.push_back(false);   // IDE
    bits.push_back(format == CanFormat::kFd);  // r0 / FDF
  } else {
    push_field(id >> 18, 11);
    bits.push_back(true);   // SRR
    bits.push_back(true);   // IDE
    push_field(id & 0x3ffff, 18);
    bits.push_back(remote);
    bits.push_back(false);  // r1
    bits.push_back(format == CanFormat::kFd);
  }
  // DLC
  std::uint32_t dlc;
  if (format == CanFormat::kClassic) {
    dlc = static_cast<std::uint32_t>(data.size());
  } else {
    static constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,
                                             8,  12, 16, 20, 24, 32, 48, 64};
    dlc = 8;
    for (std::uint32_t i = 0; i < 16; ++i) {
      if (kSizes[i] == data.size()) {
        dlc = i;
        break;
      }
    }
  }
  push_field(dlc, 4);
  for (std::uint8_t b : data) push_field(b, 8);
  // CRC over the bit stream so far: pack bits into bytes (MSB first).
  util::Bytes packed((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) packed[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  if (format == CanFormat::kClassic) {
    push_field(util::crc15_can(packed), 15);
  } else if (data.size() <= 16) {
    push_field(util::crc17_canfd(packed), 17);
  } else {
    push_field(util::crc21_canfd(packed), 21);
  }
  return bits;
}

std::size_t CanFrame::wire_bits(std::size_t* arbitration_bits) const {
  const std::vector<bool> bits = stuff_region_bits();
  // Count stuff bits: after 5 consecutive equal bits, a complementary bit is
  // inserted (which itself participates in subsequent runs).
  std::size_t stuffed = bits.size();
  int run = 1;
  bool last = bits[0];
  for (std::size_t i = 1; i < bits.size(); ++i) {
    if (bits[i] == last) {
      if (++run == 5) {
        ++stuffed;   // inserted complement bit
        last = !last;  // run restarts at the stuff bit
        run = 1;
      }
    } else {
      last = bits[i];
      run = 1;
    }
  }
  // Trailer: CRC delimiter + ACK slot + ACK delimiter + EOF(7) + IFS(3).
  const std::size_t trailer = 1 + 1 + 1 + 7 + 3;
  if (arbitration_bits) {
    // For FD/BRS: everything before the DLC region is nominal-rate. We
    // approximate the nominal-rate portion as the arbitration field
    // (SOF..IDE) which is close enough for load studies: ~30 bits for
    // base, ~50 for extended, plus the trailer which is also nominal.
    *arbitration_bits = (extended ? 50 : 30) + trailer;
  }
  return stuffed + trailer;
}

CanBus::CanBus(Scheduler& sched, std::string name, std::uint64_t bitrate_bps,
               std::uint64_t data_bitrate_bps)
    : sched_(sched),
      name_(std::move(name)),
      bitrate_(bitrate_bps),
      data_bitrate_(data_bitrate_bps ? data_bitrate_bps : bitrate_bps),
      trace_(name_, "can." + name_ + ".") {
  if (bitrate_ == 0) throw std::invalid_argument("CanBus: zero bitrate");
  wire_telemetry();
}

void CanBus::wire_telemetry() {
  c_frames_ok_ = &trace_.counter("frames_ok");
  c_frames_error_ = &trace_.counter("frames_error");
  c_bits_on_wire_ = &trace_.counter("bits_on_wire");
  c_busy_ns_ = &trace_.counter("busy_ns");
  c_frames_dropped_fault_ = &trace_.counter("frames_dropped_fault");
  c_frames_duplicated_ = &trace_.counter("frames_duplicated");
  c_frames_malformed_ = &trace_.counter("frames_malformed");
  k_tx_ = trace_.kind("tx");
  k_tx_start_ = trace_.kind("tx_start");
  k_tx_error_ = trace_.kind("tx_error");
  k_tx_error_start_ = trace_.kind("tx_error_start");
  k_bus_off_ = trace_.kind("bus_off");
  k_recover_ = trace_.kind("recover");
  k_fault_drop_ = trace_.kind("fault_drop");
  k_fault_dup_ = trace_.kind("fault_dup");
  k_fault_malformed_ = trace_.kind("fault_malformed");
}

void CanBus::bind_telemetry(const sim::Telemetry& t) {
  trace_.bind(t);
  wire_telemetry();
}

CanBusStats CanBus::stats() const {
  CanBusStats s;
  s.frames_ok = c_frames_ok_->value();
  s.frames_error = c_frames_error_->value();
  s.bits_on_wire = c_bits_on_wire_->value();
  s.busy_time = SimTime::from_ns(c_busy_ns_->value());
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
    c_frames_dropped_fault_->inc();
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
      c_frames_malformed_->inc();
      ASECK_TRACE(trace_, sched_.now(), k_fault_malformed_, winner->name());
    }
  }
  const SimTime duration = frame_time(frame);
  const bool errored = (error_injector_ && error_injector_(frame, *winner)) ||
                       (fault_port_ && fault_port_->roll_corrupt());
  ASECK_TRACE(trace_, sched_.now(), errored ? k_tx_error_start_ : k_tx_start_,
              winner->name());
  // An errored frame aborts after the error flag (~ error flag + delimiter +
  // IFS ~= 17 bits); model as a fixed fraction of the frame.
  SimTime busy_for =
      errored ? SimTime::from_seconds_f(
                    static_cast<double>(frame.wire_bits(nullptr) / 4 + 17) /
                    static_cast<double>(bitrate_))
              : duration;
  // Injected delay: the medium is disturbed (retransmission-after-noise),
  // holding the bus longer and delivering the frame late.
  if (fault_port_) busy_for += fault_port_->roll_delay();
  c_busy_ns_->inc(busy_for.ns);
  c_bits_on_wire_->inc(frame.wire_bits(nullptr));
  sched_.schedule_in(busy_for, [this, winner, frame, errored] {
    finish_tx(winner, frame, errored);
  });
}

void CanBus::finish_tx(CanNode* node, const CanFrame& frame, bool errored) {
  busy_ = false;
  if (errored) {
    c_frames_error_->inc();
    bump_tx_error(node);
    ASECK_TRACE(trace_, sched_.now(), k_tx_error_, node->name());
    // Frame stays at queue head for retransmission unless the node went
    // bus-off (then the queue is frozen).
    if (node->state_ == CanNodeState::kBusOff) {
      node->tx_queue_.clear();
    }
  } else {
    c_frames_ok_->inc();
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
      c_frames_duplicated_->inc();
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
