#include "ivn/lin.hpp"

#include <stdexcept>

namespace aseck::ivn {

std::uint8_t lin_protected_id(std::uint8_t id6) {
  const std::uint8_t id = id6 & 0x3f;
  const std::uint8_t p0 = static_cast<std::uint8_t>(
      ((id >> 0) ^ (id >> 1) ^ (id >> 2) ^ (id >> 4)) & 1);
  const std::uint8_t p1 = static_cast<std::uint8_t>(
      (~((id >> 1) ^ (id >> 3) ^ (id >> 4) ^ (id >> 5))) & 1);
  return static_cast<std::uint8_t>(id | (p0 << 6) | (p1 << 7));
}

std::uint8_t lin_checksum(std::uint8_t pid, util::BytesView data, bool enhanced) {
  std::uint32_t sum = enhanced ? pid : 0;
  for (std::uint8_t b : data) {
    sum += b;
    if (sum >= 256) sum -= 255;  // carry wraps into bit 0
  }
  return static_cast<std::uint8_t>(~sum & 0xff);
}

LinMaster::LinMaster(Scheduler& sched, std::string name, std::uint64_t bitrate_bps,
                     const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      bitrate_(bitrate_bps),
      trace_(name_, "lin." + name_ + ".", telemetry) {
  if (bitrate_ == 0) throw std::invalid_argument("LinMaster: zero bitrate");
}

void LinMaster::attach(LinSlave* slave) { slaves_.push_back(slave); }

void LinMaster::set_schedule(std::vector<LinSlot> table) {
  schedule_ = std::move(table);
}

void LinMaster::start() {
  if (schedule_.empty()) throw std::logic_error("LinMaster: empty schedule");
  if (running_) return;
  running_ = true;
  sched_.schedule_in(SimTime::zero(), [this] { run_slot(0); });
}

void LinMaster::stop() { running_ = false; }

void LinMaster::run_slot(std::size_t index) {
  if (!running_) return;
  const LinSlot& slot = schedule_[index];
  const std::uint8_t pid = lin_protected_id(slot.id);

  // Header: 13-bit break + sync byte + pid byte (with start/stop bits:
  // 10 bits per byte on LIN UART framing) ~= 34 bit times.
  std::optional<util::Bytes> response;
  LinSlave* responder = nullptr;
  for (LinSlave* s : slaves_) {
    response = s->respond(slot.id);
    if (response) {
      responder = s;
      break;
    }
  }

  if (!response) {
    c_no_response_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_no_response_,
                "id=" + std::to_string(slot.id));
  } else if (fault_port_ && (fault_port_->down() || fault_port_->roll_drop())) {
    // Injected fault: the response is lost on the wire.
    c_dropped_fault_.inc();
    ASECK_TRACE(trace_, sched_.now(), k_fault_drop_,
                "id=" + std::to_string(slot.id));
  } else {
    LinFrame frame{slot.id, *response, true};
    const std::uint8_t expected =
        lin_checksum(pid, frame.data, frame.enhanced_checksum);
    bool corrupted = false;
    if (corruptor_) corrupted = corruptor_(frame.data);
    if (fault_port_ && fault_port_->roll_corrupt() && !frame.data.empty()) {
      frame.data[0] = static_cast<std::uint8_t>(frame.data[0] ^ 0xff);
      corrupted = true;
    }
    const std::uint8_t actual =
        lin_checksum(pid, frame.data, frame.enhanced_checksum);
    if (corrupted && actual != expected) {
      c_checksum_errors_.inc();
      ASECK_TRACE(trace_, sched_.now(), k_checksum_error_,
                  "id=" + std::to_string(slot.id));
    } else {
      c_frames_ok_.inc();
      // Response time: (data+checksum) bytes at 10 bits each + header.
      const std::size_t bits = 34 + (frame.data.size() + 1) * 10;
      const SimTime when = sched_.now() + SimTime::from_seconds_f(
          static_cast<double>(bits) / static_cast<double>(bitrate_));
      ASECK_TRACE(trace_, when, k_frame_, "id=" + std::to_string(slot.id));
      for (LinSlave* s : slaves_) {
        if (s != responder) s->on_frame(frame, when);
      }
    }
  }

  const std::size_t next = (index + 1) % schedule_.size();
  sched_.schedule_in(slot.slot_time, [this, next] { run_slot(next); });
}

}  // namespace aseck::ivn
