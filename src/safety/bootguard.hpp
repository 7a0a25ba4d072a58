#pragma once
// Supervised boot: wires `ecu::BootChain` to a `safety::HealthSupervisor`
// entity so a hung boot stage escalates through the WdgM ladder instead of
// wedging the ECU (ISSUE E23 / paper §3+§7: safety mechanisms must cover the
// security plumbing too).
//
// A safety::Watchdog whose heartbeat beats while the chain is healthy
// (`!chain.hung()`) and falls silent the moment a stage hangs; the
// supervisor's reset handler then re-runs the chain, which is exactly what a
// hardware watchdog reset does on a real ECU. Every detection, escalation,
// and re-boot lands on the shared TraceBus next to the chain's own stage
// events.

#include <cstdint>
#include <string>

#include "ecu/boot.hpp"
#include "safety/supervisor.hpp"
#include "sim/scheduler.hpp"
#include "util/time.hpp"

namespace aseck::safety {

class BootGuard {
 public:
  /// Registers `entity` on `supervisor` (call before supervisor.start()).
  BootGuard(sim::Scheduler& sched, HealthSupervisor& supervisor,
            ecu::BootChain& chain, std::string entity,
            util::SimTime check_period);

  /// Starts the heartbeat (and the supervisor, if not yet running).
  void start() { watchdog_.start(); }

  /// Chain re-runs performed by the supervisor's reset handler.
  std::uint64_t reboots() const { return reboots_; }
  /// Of those, how many produced a non-hung boot (any mode counts — a
  /// recovery-mode boot is a *successful* escalation outcome).
  std::uint64_t reboots_recovered() const { return reboots_recovered_; }

 private:
  sim::Scheduler& sched_;
  ecu::BootChain& chain_;
  std::uint64_t reboots_ = 0;
  std::uint64_t reboots_recovered_ = 0;
  Watchdog watchdog_;
};

}  // namespace aseck::safety
