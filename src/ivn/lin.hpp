#pragma once
// LIN 2.x bus model: single master with a schedule table, slaves respond to
// headers. Models protected identifiers (parity), classic/enhanced checksum,
// and 19.2 kbit/s-class timing. LIN carries body-domain traffic (seats,
// window lifts, key fob receiver) in the vehicle models.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

namespace aseck::ivn {

using sim::Scheduler;
using sim::SimTime;

/// Computes the protected identifier: 6-bit id + two parity bits (LIN 2.x).
std::uint8_t lin_protected_id(std::uint8_t id6);
/// Enhanced checksum over PID + data (LIN 2.x); classic omits the PID.
std::uint8_t lin_checksum(std::uint8_t pid, util::BytesView data, bool enhanced);

struct LinFrame {
  std::uint8_t id = 0;  // 6-bit
  util::Bytes data;     // 1..8 bytes
  bool enhanced_checksum = true;
};

/// A slave publishes responses for the ids it owns and consumes others.
class LinSlave {
 public:
  virtual ~LinSlave() = default;

  /// Returns the response payload if this slave answers `id`.
  virtual std::optional<util::Bytes> respond(std::uint8_t id) = 0;
  /// Observes a completed frame (header + response) on the bus.
  virtual void on_frame(const LinFrame& frame, SimTime at) {
    (void)frame;
    (void)at;
  }
};

/// Schedule table entry: which id to poll and the slot duration.
struct LinSlot {
  std::uint8_t id = 0;
  SimTime slot_time = SimTime::from_ms(10);
};

/// Faults (sim::FaultHook): drop faults and bus-down windows lose the
/// response (counted separately from no_response), corrupt faults flip
/// payload bits into the checksum path.
class LinMaster : public sim::FaultHook {
 public:
  LinMaster(Scheduler& sched, std::string name, std::uint64_t bitrate_bps = 19200,
            const sim::Telemetry& telemetry = {});

  void attach(LinSlave* slave);
  void set_schedule(std::vector<LinSlot> table);
  /// Starts cycling through the schedule table.
  void start();
  void stop();

  /// Frames completed (with a responder).
  std::uint64_t frames_ok() const { return c_frames_ok_.value(); }
  /// Headers that no slave answered.
  std::uint64_t no_response() const { return c_no_response_.value(); }
  /// Observed checksum errors (corruption injection).
  std::uint64_t checksum_errors() const { return c_checksum_errors_.value(); }

  /// Corruption hook: called with the response payload before delivery; may
  /// mutate it (returns true if mutated) to model noise/attack.
  using Corruptor = std::function<bool(util::Bytes&)>;
  void set_corruptor(Corruptor c) { corruptor_ = std::move(c); }

  /// Responses lost to injected faults.
  std::uint64_t dropped_fault() const { return c_dropped_fault_.value(); }

 private:
  void run_slot(std::size_t index);

  Scheduler& sched_;
  std::string name_;
  std::uint64_t bitrate_;
  std::vector<LinSlave*> slaves_;
  std::vector<LinSlot> schedule_;
  bool running_ = false;
  Corruptor corruptor_;
  sim::TraceScope trace_;
  sim::Counter& c_frames_ok_ = trace_.counter("frames_ok");
  sim::Counter& c_no_response_ = trace_.counter("no_response");
  sim::Counter& c_checksum_errors_ = trace_.counter("checksum_errors");
  sim::Counter& c_dropped_fault_ = trace_.counter("dropped_fault");
  const sim::TraceId k_frame_ = trace_.kind("frame");
  const sim::TraceId k_no_response_ = trace_.kind("no_response");
  const sim::TraceId k_checksum_error_ = trace_.kind("checksum_error");
  const sim::TraceId k_fault_drop_ = trace_.kind("fault_drop");
};

}  // namespace aseck::ivn
