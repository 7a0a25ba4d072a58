#include "safety/bootguard.hpp"

namespace aseck::safety {

BootGuard::BootGuard(sim::Scheduler& sched, HealthSupervisor& supervisor,
                     ecu::BootChain& chain, std::string entity,
                     util::SimTime check_period)
    : sched_(sched),
      chain_(chain),
      watchdog_(sched, supervisor, std::move(entity), check_period,
                [this] { return !chain_.hung(); },
                [this](const std::string&) {
                  // The watchdog reset IS the reboot: re-run the measured
                  // chain. The chain's own degradation ladder (retry ->
                  // fallback slot -> recovery image) decides what comes up;
                  // any non-hung outcome is "back up".
                  ++reboots_;
                  const auto rep = chain_.run(sched_.now());
                  if (!rep.hung) ++reboots_recovered_;
                  return !rep.hung;
                }) {}

}  // namespace aseck::safety
