#include "v2x/dcc.hpp"

namespace aseck::v2x {

const char* dcc_state_name(DccState s) {
  switch (s) {
    case DccState::kRelaxed: return "relaxed";
    case DccState::kActive1: return "active1";
    case DccState::kActive2: return "active2";
    case DccState::kRestrictive: return "restrictive";
  }
  return "?";
}

namespace {
/// CBR thresholds separating the DCC states.
constexpr double kRelaxedBelow = 0.30;  // CBR below this -> relaxed
constexpr double kActive1Below = 0.40;
constexpr double kActive2Below = 0.50;  // above -> restrictive
constexpr util::SimTime kDownDwell = util::SimTime::from_s(1);  // ramp-down
constexpr util::SimTime kCbrWindow = util::SimTime::from_ms(100);  // ETSI

DccState target_for(double cbr) {
  if (cbr < kRelaxedBelow) return DccState::kRelaxed;
  if (cbr < kActive1Below) return DccState::kActive1;
  if (cbr < kActive2Below) return DccState::kActive2;
  return DccState::kRestrictive;
}
}  // namespace

DccState DccController::update(double cbr, util::SimTime now) {
  const DccState target = target_for(cbr);
  if (rank(target) > rank(state_)) {
    // Escalate immediately.
    state_ = target;
    tracking_down_ = false;
  } else if (rank(target) < rank(state_)) {
    if (!tracking_down_) {
      tracking_down_ = true;
      below_since_ = now;
    } else if (now - below_since_ >= kDownDwell) {
      // Step down one state at a time (ETSI ramp-down behavior).
      state_ = static_cast<DccState>(rank(state_) - 1);
      below_since_ = now;
      if (state_ == target) tracking_down_ = false;
    }
  } else {
    tracking_down_ = false;
  }
  return state_;
}

util::SimTime DccController::beacon_interval() const {
  switch (state_) {
    case DccState::kRelaxed: return util::SimTime::from_ms(100);      // 10 Hz
    case DccState::kActive1: return util::SimTime::from_ms(200);      // 5 Hz
    case DccState::kActive2: return util::SimTime::from_ms(400);      // 2.5 Hz
    case DccState::kRestrictive: return util::SimTime::from_ms(1000); // 1 Hz
  }
  return util::SimTime::from_ms(100);
}

void CbrEstimator::roll(util::SimTime now) {
  if (now - window_start_ < kCbrWindow) return;
  last_cbr_ = static_cast<double>(busy_in_window_.ns) /
              static_cast<double>(kCbrWindow.ns);
  if (last_cbr_ > 1.0) last_cbr_ = 1.0;
  window_start_ = now;
  busy_in_window_ = util::SimTime::zero();
}

void CbrEstimator::on_air(util::SimTime now, util::SimTime airtime) {
  roll(now);
  busy_in_window_ += airtime;
}

double CbrEstimator::cbr(util::SimTime now) {
  roll(now);
  return last_cbr_;
}

}  // namespace aseck::v2x
