#pragma once
// CAN 2.0A/B and CAN FD bus model.
//
// The model is frame-level event-driven with bit-accurate timing: frame
// transmission time is computed from the actual serialized bit stream
// including stuff bits, and arbitration follows CSMA/CR identifier priority
// exactly (lowest numeric ID wins; among equal IDs the transmitter that
// enqueued first wins, which models the dominant-bit tie never occurring on
// a real bus with unique IDs).
//
// Error handling implements the CAN fault-confinement state machine (TEC/REC
// counters, error-active -> error-passive -> bus-off), which is what the
// bus-off attack in src/attacks exploits.

#include <cstdint>
#include <deque>
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

/// Wire format family of a frame.
enum class CanFormat { kClassic, kFd };

struct CanFrame {
  std::uint32_t id = 0;       // 11-bit (or 29-bit if extended)
  bool extended = false;      // IDE
  bool remote = false;        // RTR (classic only)
  CanFormat format = CanFormat::kClassic;
  bool brs = false;           // FD bit-rate switch
  util::Bytes data;           // <= 8 (classic) or <= 64 (FD)

  /// Valid DLC payload sizes for CAN FD.
  static std::size_t fd_round_up(std::size_t n);
  /// True iff id/data lengths are legal for the format.
  bool valid() const;

  /// Compact wire encoding used by the attack corpus and the fuzzer:
  /// flags(1: bit0=extended, bit1=remote, bit2=FD, bit3=BRS) || id(4 BE) ||
  /// dlc(1, raw DLC code) || data. `decode_wire` validates strictly — DLC
  /// codes above the format's limit, payload length mismatching the DLC,
  /// out-of-range ids, and illegal flag combinations are rejected (the V10
  /// "DLC overflow" class: a lenient decoder reading dlc=15 bytes from an
  /// 8-byte classic frame). A decoded frame always satisfies `valid()`.
  util::Bytes encode_wire() const;
  static std::optional<CanFrame> decode_wire(util::BytesView b);
  /// Serialized bits from SOF through CRC (stuffing region), for timing.
  /// The CRC covers the bits before it zero-padded to a byte boundary, not
  /// the unpadded bit stream of ISO 11898-1; correcting that changes every
  /// frame's length and so every recorded golden. Throws
  /// std::invalid_argument if `!valid()`.
  std::vector<bool> stuff_region_bits() const;
  /// Total on-wire bit count including stuff bits, delimiters, ACK, EOF, IFS.
  /// For FD frames `arbitration_bits` receives the count sent at nominal
  /// rate, the rest at data rate. Throws std::invalid_argument if `!valid()`.
  std::size_t wire_bits(std::size_t* arbitration_bits = nullptr) const;
};

/// CAN node fault-confinement state.
enum class CanNodeState { kErrorActive, kErrorPassive, kBusOff };

class CanBus;

/// A device attached to a CAN bus. ECUs, the gateway, the IDS tap, and
/// attackers all implement this.
class CanNode {
 public:
  explicit CanNode(std::string name) : name_(std::move(name)) {}
  virtual ~CanNode() = default;

  const std::string& name() const { return name_; }

  /// Called for every successfully transmitted frame from *other* nodes.
  virtual void on_frame(const CanFrame& frame, SimTime at) = 0;
  /// Called when one of this node's frames completed transmission.
  virtual void on_tx_done(const CanFrame& frame, SimTime at) {
    (void)frame;
    (void)at;
  }
  /// Called when this node enters bus-off.
  virtual void on_bus_off(SimTime at) { (void)at; }

  CanNodeState state() const { return state_; }
  int tec() const { return tec_; }

 private:
  friend class CanBus;
  std::string name_;
  CanNodeState state_ = CanNodeState::kErrorActive;
  int tec_ = 0;  // transmit error counter
  std::deque<CanFrame> tx_queue_;
};

/// Per-bus statistics snapshot (registry-backed; see CanBus::stats()).
struct CanBusStats {
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_error = 0;
  std::uint64_t bits_on_wire = 0;
  SimTime busy_time = SimTime::zero();
  double bus_load(SimTime elapsed) const {
    return elapsed.ns == 0 ? 0.0
                           : static_cast<double>(busy_time.ns) /
                                 static_cast<double>(elapsed.ns);
  }
};

/// Hook invoked when a frame *starts* transmission; returning true destroys
/// the frame with a bit error (models an adversary driving dominant bits —
/// the bus-off attack primitive). Receives the transmitting node.
using ErrorInjector = std::function<bool(const CanFrame&, const CanNode&)>;

/// Faults (sim::FaultHook): per-frame drop, corrupt, delay, duplicate, and
/// malformed-splice faults plus whole-bus down windows are consulted on the
/// TX path.
class CanBus : public sim::FaultHook {
 public:
  /// `data_bitrate` only matters for FD frames with BRS.
  CanBus(Scheduler& sched, std::string name, std::uint64_t bitrate_bps,
         std::uint64_t data_bitrate_bps = 0,
         const sim::Telemetry& telemetry = {});

  const std::string& name() const { return name_; }

  void attach(CanNode* node);
  void detach(CanNode* node);

  /// Enqueues a frame for transmission by `node`. Returns false if the node
  /// is bus-off or the frame is invalid.
  bool send(CanNode* node, CanFrame frame);

  /// Snapshot materialized from the metrics registry (compat accessor).
  CanBusStats stats() const;
  /// Times any node on this bus entered bus-off.
  std::uint64_t bus_offs() const { return bus_offs_; }
  sim::TraceScope& trace() { return trace_; }

  void set_error_injector(ErrorInjector injector) {
    error_injector_ = std::move(injector);
  }

  /// Time to serialize `frame` on this bus. Throws std::invalid_argument
  /// if `!frame.valid()`.
  SimTime frame_time(const CanFrame& frame) const;

  /// Clears a node's bus-off state (models the 128x11-recessive-bit recovery
  /// plus host intervention).
  void recover(CanNode* node);

  /// Enables automatic bus-off recovery: `delay` after a node enters
  /// kBusOff, a scheduler-driven timer calls recover() for it (zero
  /// disables; manual recover() still works and cancels the timer).
  void set_auto_recovery(SimTime delay) { auto_recovery_ = delay; }

 private:
  /// frame_time() from an already computed wire_bits() result.
  SimTime frame_time(const CanFrame& frame, std::size_t total,
                     std::size_t arb_bits) const;
  void try_start_tx();
  void finish_tx(CanNode* node, const CanFrame& frame, bool errored);
  void bump_tx_error(CanNode* node);

  Scheduler& sched_;
  std::string name_;
  std::uint64_t bitrate_;
  std::uint64_t data_bitrate_;
  std::vector<CanNode*> nodes_;
  bool busy_ = false;
  std::uint64_t bus_offs_ = 0;
  sim::TraceScope trace_;
  sim::Counter& c_frames_ok_ = trace_.counter("frames_ok");
  sim::Counter& c_frames_error_ = trace_.counter("frames_error");
  sim::Counter& c_bits_on_wire_ = trace_.counter("bits_on_wire");
  sim::Counter& c_busy_ns_ = trace_.counter("busy_ns");
  sim::Counter& c_frames_dropped_fault_ = trace_.counter("frames_dropped_fault");
  sim::Counter& c_frames_duplicated_ = trace_.counter("frames_duplicated");
  sim::Counter& c_frames_malformed_ = trace_.counter("frames_malformed");
  const sim::TraceId k_tx_ = trace_.kind("tx");
  const sim::TraceId k_tx_start_ = trace_.kind("tx_start");
  const sim::TraceId k_tx_error_ = trace_.kind("tx_error");
  const sim::TraceId k_tx_error_start_ = trace_.kind("tx_error_start");
  const sim::TraceId k_bus_off_ = trace_.kind("bus_off");
  const sim::TraceId k_recover_ = trace_.kind("recover");
  const sim::TraceId k_fault_drop_ = trace_.kind("fault_drop");
  const sim::TraceId k_fault_dup_ = trace_.kind("fault_dup");
  const sim::TraceId k_fault_malformed_ = trace_.kind("fault_malformed");
  ErrorInjector error_injector_;
  SimTime auto_recovery_ = SimTime::zero();
  std::map<CanNode*, sim::EventId> recovery_timers_;
};

}  // namespace aseck::ivn
