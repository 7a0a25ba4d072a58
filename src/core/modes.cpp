#include "core/modes.hpp"

#include <algorithm>
#include <stdexcept>

namespace aseck::core {

const char* environment_name(Environment e) {
  switch (e) {
    case Environment::kParked: return "parked";
    case Environment::kHighway: return "highway";
    case Environment::kUrban: return "urban";
    case Environment::kIntersection: return "intersection";
  }
  return "?";
}

double SecurityMode::security_index() const {
  // Equal-weight blend of verification coverage, IDS strictness (4.0
  // baseline -> 1.0 at k=2), MAC strength (16 bytes = 1.0), and analytics.
  const double ids = std::clamp((6.0 - ids_sensitivity) / 4.0, 0.0, 1.0);
  const double mac = std::min(1.0, static_cast<double>(secoc_mac_bytes) / 16.0);
  const double analytics = static_cast<double>(analytics_level) / 3.0;
  return 0.25 * (v2x_verify_fraction + ids + mac + analytics);
}

TradeoffController::TradeoffController() {
  // Sensible defaults; policy can replace them.
  SecurityMode parked{"parked", 0.2, 5.0, 2, 0, 50};
  SecurityMode highway{"highway", 0.5, 4.5, 4, 1, 100};
  SecurityMode urban{"urban", 0.9, 3.5, 4, 2, 400};
  SecurityMode intersection{"intersection", 1.0, 3.0, 8, 3, 800};
  table_[Environment::kParked] = parked;
  table_[Environment::kHighway] = highway;
  table_[Environment::kUrban] = urban;
  table_[Environment::kIntersection] = intersection;
  strict_ = SecurityMode{"lockdown", 1.0, 2.0, 16, 3, 1000};
  current_ = highway;
}

const SecurityMode& TradeoffController::mode_for(Environment env) const {
  const auto it = table_.find(env);
  if (it == table_.end()) {
    throw std::invalid_argument("TradeoffController: no mode for environment");
  }
  return it->second;
}

const SecurityMode& TradeoffController::update(Environment env,
                                               double threat_level,
                                               util::SimTime now) {
  const SecurityMode& want =
      threat_level >= threat_escalation_threshold ? strict_ : mode_for(env);
  if (!baseline_set_) {
    // First observation establishes the dwell baseline.
    baseline_set_ = true;
    last_change_ = now;
    if (want.name != current_.name) {
      current_ = want;
      ++transitions_;
    }
    return current_;
  }
  if (want.name != current_.name) {
    // Hysteresis: do not thrash between modes faster than min_dwell, except
    // escalations which apply immediately.
    const bool escalation = want.security_index() > current_.security_index();
    if (escalation || now - last_change_ >= min_dwell_) {
      current_ = want;
      last_change_ = now;
      ++transitions_;
    }
  }
  return current_;
}

}  // namespace aseck::core
