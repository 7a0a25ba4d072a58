#pragma once
// Decentralized congestion control (ETSI DCC-style) for the V2X channel —
// the paper's §5 "communication patterns govern trade-offs between
// security, performance, and network bandwidth" made concrete: under
// channel load, vehicles back off their beacon rate through a reactive
// state machine, trading situational-awareness freshness for channel
// availability. Security interaction: a jammer or beacon-flooding attacker
// drives everyone into the restrictive state (a soft DoS that never breaks
// a single signature).

#include <cstdint>

#include "util/time.hpp"

namespace aseck::v2x {

/// Reactive DCC states with target beacon intervals.
enum class DccState { kRelaxed, kActive1, kActive2, kRestrictive };
const char* dcc_state_name(DccState s);

/// Channel-busy-ratio (CBR) driven controller.
class DccController {
 public:
  /// Feeds a CBR measurement (0..1); returns the new state. Transitions up
  /// (more restrictive) are immediate; transitions down require the lower
  /// CBR to persist for 1 s (ramp-down hysteresis).
  DccState update(double cbr, util::SimTime now);

  DccState state() const { return state_; }
  /// Beacon interval mandated by the current state.
  util::SimTime beacon_interval() const;

 private:
  static int rank(DccState s) { return static_cast<int>(s); }

  DccState state_ = DccState::kRelaxed;
  util::SimTime below_since_ = util::SimTime::zero();
  bool tracking_down_ = false;
};

/// Sliding-window CBR estimator fed with per-message airtime over a 100 ms
/// measurement period (ETSI's).
class CbrEstimator {
 public:
  /// Records a transmission overheard on-channel at `now` lasting `airtime`.
  void on_air(util::SimTime now, util::SimTime airtime);
  /// CBR for the window ending at `now`.
  double cbr(util::SimTime now);

 private:
  /// Closes the window if `now` is past it.
  void roll(util::SimTime now);

  util::SimTime window_start_ = util::SimTime::zero();
  util::SimTime busy_in_window_ = util::SimTime::zero();
  double last_cbr_ = 0.0;
};

}  // namespace aseck::v2x
