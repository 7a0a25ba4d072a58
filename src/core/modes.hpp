#pragma once
// Dynamic security/performance trade-off controller (paper Section 5,
// "Dynamic Trade-offs between Security, Smartness, Communication").
//
// A car on an empty highway needs less analytics and V2X verification than
// one in a dense city; threat escalations (IDS alerts) demand more checking
// regardless. The controller maps (environment, threat level) to a security
// mode; the layer manager pushes the mode's parameters into the stack.
// Experiment E10 measures the bandwidth/latency/security-index envelope.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace aseck::core {

enum class Environment { kParked, kHighway, kUrban, kIntersection };
const char* environment_name(Environment e);

/// A named operating point of the security stack.
struct SecurityMode {
  std::string name;
  double v2x_verify_fraction = 1.0;   // fraction of received SPDUs verified
  double ids_sensitivity = 4.0;       // frequency-detector k (lower = stricter)
  std::size_t secoc_mac_bytes = 4;
  std::uint32_t analytics_level = 2;  // 0..3 sensor-fusion depth
  double cloud_bandwidth_kbps = 200;

  /// Composite security index in [0,1]: how much of the maximum checking
  /// this mode performs (used as the E10 y-axis).
  double security_index() const;
};

/// Hysteresis-based controller.
class TradeoffController {
 public:
  TradeoffController();

  const SecurityMode& mode_for(Environment env) const;

  /// Feeds context; returns the selected mode. Threat level in [0,1]
  /// (e.g. normalized IDS alert rate); above `threat_escalation_threshold`
  /// the controller overrides with the strictest mode.
  const SecurityMode& update(Environment env, double threat_level,
                             util::SimTime now);

  const SecurityMode& current() const { return current_; }
  std::uint32_t transitions() const { return transitions_; }
  double threat_escalation_threshold = 0.5;

 private:
  std::map<Environment, SecurityMode> table_;
  SecurityMode strict_;
  SecurityMode current_;
  util::SimTime last_change_ = util::SimTime::zero();
  bool baseline_set_ = false;
  util::SimTime min_dwell_ = util::SimTime::from_s(2);
  std::uint32_t transitions_ = 0;
};

}  // namespace aseck::core
