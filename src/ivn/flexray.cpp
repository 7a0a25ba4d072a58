#include "ivn/flexray.hpp"

#include <algorithm>
#include <stdexcept>

namespace aseck::ivn {

namespace {
constexpr std::uint64_t kBitrateBps = 10'000'000;  // 10 Mbit/s
}  // namespace

FlexRayBus::FlexRayBus(Scheduler& sched, std::string name, FlexRayConfig cfg,
                       const sim::Telemetry& telemetry)
    : sched_(sched),
      name_(std::move(name)),
      cfg_(cfg),
      trace_(name_, "flexray." + name_ + ".", telemetry) {
  if (cfg_.static_slots == 0) {
    throw std::invalid_argument("FlexRayBus: need at least one static slot");
  }
}

void FlexRayBus::assign_static_slot(std::uint16_t slot, FlexRayNode* node) {
  if (slot == 0 || slot > cfg_.static_slots) {
    throw std::invalid_argument("FlexRayBus: slot out of range");
  }
  if (static_owners_.count(slot)) {
    throw std::invalid_argument("FlexRayBus: slot already owned");
  }
  static_owners_[slot] = node;
  attach_listener(node);
}

void FlexRayBus::attach_listener(FlexRayNode* node) {
  if (std::find(listeners_.begin(), listeners_.end(), node) == listeners_.end()) {
    listeners_.push_back(node);
  }
}

void FlexRayBus::send_dynamic(FlexRayNode* from, std::uint16_t dyn_id,
                              util::Bytes payload) {
  if (dyn_id == 0 || dyn_id > cfg_.dynamic_minislots) {
    throw std::invalid_argument("FlexRayBus: dynamic id out of range");
  }
  dyn_queue_.push_back(DynEntry{dyn_id, from, std::move(payload)});
}

void FlexRayBus::start() {
  if (running_) return;
  running_ = true;
  sched_.schedule_in(SimTime::zero(), [this] { run_cycle(); });
}

void FlexRayBus::stop() { running_ = false; }

void FlexRayBus::run_cycle() {
  if (!running_) return;
  const SimTime cycle_start = sched_.now();

  // Static segment: fixed slot grid.
  for (std::uint16_t slot = 1; slot <= cfg_.static_slots; ++slot) {
    const SimTime at = cycle_start + FlexRayConfig::kStaticSlotLen * (slot - 1);
    auto it = static_owners_.find(slot);
    if (it == static_owners_.end()) continue;
    FlexRayNode* owner = it->second;
    const std::uint8_t cyc = cycle_;
    sched_.schedule_at(at, [this, owner, slot, cyc] {
      auto payload = owner->static_payload(slot, cyc);
      FlexRayFrame frame;
      frame.slot_id = slot;
      frame.cycle = cyc;
      if (payload) {
        if (fault_port_ && (fault_port_->down() || fault_port_->roll_drop())) {
          // Injected fault: frame lost, TDMA slot still consumed.
          c_dropped_fault_.inc();
          ASECK_TRACE(trace_, sched_.now(), k_fault_drop_,
                      "slot=" + std::to_string(slot));
          return;
        }
        frame.payload = std::move(*payload);
        c_static_frames_.inc();
        ASECK_TRACE(trace_, sched_.now(), k_static_,
                    "slot=" + std::to_string(slot));
        for (FlexRayNode* l : listeners_) {
          if (l != owner) l->on_frame(frame, sched_.now());
        }
      } else {
        frame.null_frame = true;
        c_null_frames_.inc();
      }
    });
  }

  // Dynamic segment: minislot counting; lower dyn_id transmits first. A
  // frame occupies ceil(bits / minislot_bits) minislots; frames that do not
  // fit before the segment end wait for the next cycle.
  const SimTime dyn_start = cycle_start + FlexRayConfig::kStaticSlotLen * cfg_.static_slots;
  std::sort(dyn_queue_.begin(), dyn_queue_.end(),
            [](const DynEntry& a, const DynEntry& b) { return a.dyn_id < b.dyn_id; });
  const double minislot_bits =
      FlexRayConfig::kMinislotLen.seconds() * static_cast<double>(kBitrateBps);
  std::uint32_t used_minislots = 0;
  std::vector<DynEntry> carry;
  for (auto& e : dyn_queue_) {
    const double frame_bits = static_cast<double>(e.payload.size() * 8 + 80);
    const auto need = static_cast<std::uint32_t>(
        (frame_bits + minislot_bits - 1) / minislot_bits);
    if (used_minislots + need > cfg_.dynamic_minislots) {
      carry.push_back(std::move(e));
      c_dynamic_dropped_.inc();
      continue;
    }
    const SimTime at = dyn_start + FlexRayConfig::kMinislotLen * used_minislots;
    used_minislots += need;
    FlexRayFrame frame;
    frame.slot_id = static_cast<std::uint16_t>(cfg_.static_slots + e.dyn_id);
    frame.cycle = cycle_;
    frame.payload = std::move(e.payload);
    FlexRayNode* from = e.from;
    c_dynamic_frames_.inc();
    sched_.schedule_at(at, [this, frame = std::move(frame), from] {
      if (fault_port_ && (fault_port_->down() || fault_port_->roll_drop())) {
        c_dropped_fault_.inc();
        ASECK_TRACE(trace_, sched_.now(), k_fault_drop_,
                    "slot=" + std::to_string(frame.slot_id));
        return;
      }
      ASECK_TRACE(trace_, sched_.now(), k_dynamic_,
                  "slot=" + std::to_string(frame.slot_id));
      for (FlexRayNode* l : listeners_) {
        if (l != from) l->on_frame(frame, sched_.now());
      }
    });
  }
  dyn_queue_ = std::move(carry);

  cycle_ = static_cast<std::uint8_t>((cycle_ + 1) & 0x3f);  // 64-cycle wheel
  sched_.schedule_at(cycle_start + cfg_.cycle_length(), [this] { run_cycle(); });
}

}  // namespace aseck::ivn
