#pragma once
// FlexRay bus model: TDMA communication cycle with a static segment
// (deterministic slots) and a dynamic segment (minislot priority access).
// FlexRay carries chassis/ADAS traffic (steering, braking) in the vehicle
// models, where deterministic latency is the safety argument.

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

struct FlexRayFrame {
  std::uint16_t slot_id = 0;     // 1..static_slots for static frames
  std::uint8_t cycle = 0;        // cycle counter when sent
  util::Bytes payload;           // up to 254 bytes (2-byte words)
  bool null_frame = false;       // slot owner had nothing to send
};

struct FlexRayConfig {
  static constexpr SimTime kStaticSlotLen = SimTime::from_us(50);
  static constexpr SimTime kMinislotLen = SimTime::from_us(5);
  static constexpr SimTime kNitLen = SimTime::from_us(100);  // network idle time

  std::uint16_t static_slots = 20;
  std::uint16_t dynamic_minislots = 40;

  SimTime cycle_length() const {
    return kStaticSlotLen * static_slots + kMinislotLen * dynamic_minislots + kNitLen;
  }
};

/// A FlexRay controller owns one or more static slots and may queue dynamic
/// frames with a priority (= dynamic slot id; lower transmits earlier).
class FlexRayNode {
 public:
  virtual ~FlexRayNode() = default;

  /// Asked at the start of the node's static slot; return payload or nullopt
  /// (-> null frame).
  virtual std::optional<util::Bytes> static_payload(std::uint16_t slot,
                                                    std::uint8_t cycle) = 0;
  /// Observes every non-null frame on the bus.
  virtual void on_frame(const FlexRayFrame& frame, SimTime at) {
    (void)frame;
    (void)at;
  }
};

/// Faults (sim::FaultHook): drop faults and bus-down windows lose static and
/// dynamic frames in their slots.
class FlexRayBus : public sim::FaultHook {
 public:
  FlexRayBus(Scheduler& sched, std::string name, FlexRayConfig cfg = {},
             const sim::Telemetry& telemetry = {});

  /// Assigns `slot` (1-based, <= static_slots) to the node. A slot has
  /// exactly one owner; reassigning throws.
  void assign_static_slot(std::uint16_t slot, FlexRayNode* node);
  void attach_listener(FlexRayNode* node);

  /// Queues a dynamic-segment frame with minislot priority `dyn_id`
  /// (1-based). Sent in the next dynamic segment if it fits.
  void send_dynamic(FlexRayNode* from, std::uint16_t dyn_id, util::Bytes payload);

  /// Starts the cyclic schedule.
  void start();
  void stop();

  std::uint8_t cycle() const { return cycle_; }
  std::uint64_t static_frames() const { return c_static_frames_.value(); }
  std::uint64_t null_frames() const { return c_null_frames_.value(); }
  std::uint64_t dynamic_dropped() const { return c_dynamic_dropped_.value(); }
  /// Frames lost to injected faults (slot still consumed, as on a real bus
  /// where a corrupted frame burns its TDMA slot).
  std::uint64_t dropped_fault() const { return c_dropped_fault_.value(); }
  const FlexRayConfig& config() const { return cfg_; }

 private:
  void run_cycle();

  Scheduler& sched_;
  std::string name_;
  FlexRayConfig cfg_;
  std::map<std::uint16_t, FlexRayNode*> static_owners_;
  std::vector<FlexRayNode*> listeners_;
  struct DynEntry {
    std::uint16_t dyn_id;
    FlexRayNode* from;
    util::Bytes payload;
  };
  std::vector<DynEntry> dyn_queue_;
  bool running_ = false;
  std::uint8_t cycle_ = 0;
  sim::TraceScope trace_;
  sim::Counter& c_static_frames_ = trace_.counter("static_frames");
  sim::Counter& c_null_frames_ = trace_.counter("null_frames");
  sim::Counter& c_dynamic_frames_ = trace_.counter("dynamic_frames");
  sim::Counter& c_dynamic_dropped_ = trace_.counter("dynamic_dropped");
  sim::Counter& c_dropped_fault_ = trace_.counter("dropped_fault");
  const sim::TraceId k_static_ = trace_.kind("static");
  const sim::TraceId k_dynamic_ = trace_.kind("dynamic");
  const sim::TraceId k_fault_drop_ = trace_.kind("fault_drop");
};

}  // namespace aseck::ivn
