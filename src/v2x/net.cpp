#include "v2x/net.hpp"

#include <algorithm>
#include <cmath>

namespace aseck::v2x {

V2xMedium::V2xMedium(Scheduler& sched, double range_m, double loss_prob,
                     std::uint64_t seed)
    : sched_(sched), range_(range_m), loss_prob_(loss_prob), rng_(seed) {}

void V2xMedium::attach(V2xRadio* radio) {
  radios_.push_back(radio);
  const std::uint64_t seq = next_attach_seq_++;
  attach_seq_[radio] = seq;
  by_seq_[seq] = radio;
  if (grid_) {
    const Position p = radio->position();
    grid_->update(seq, p.x, p.y);
  }
}

void V2xMedium::detach(V2xRadio* radio) {
  radios_.erase(std::remove(radios_.begin(), radios_.end(), radio),
                radios_.end());
  monitors_.erase(std::remove(monitors_.begin(), monitors_.end(), radio),
                  monitors_.end());
  const auto it = attach_seq_.find(radio);
  if (it != attach_seq_.end()) {
    if (grid_) grid_->remove(it->second);
    by_seq_.erase(it->second);
    attach_seq_.erase(it);
  }
}

void V2xMedium::attach_monitor(V2xRadio* radio) { monitors_.push_back(radio); }

void V2xMedium::enable_grid_index(double cell_m, double slack_m) {
  grid_ = std::make_unique<SpatialGrid>(cell_m > 0 ? cell_m : range_);
  grid_slack_ = slack_m;
  reindex_grid();
}

void V2xMedium::reindex_grid() {
  if (!grid_) return;
  for (V2xRadio* r : radios_) {
    const Position p = r->position();
    grid_->update(attach_seq_.find(r)->second, p.x, p.y);
  }
}

bool V2xMedium::deliver_roll(V2xRadio* rx, const Spdu& msg, const Position& src,
                             bool radio_down) {
  ++receivers_checked_;
  const double dist = rx->position().distance_to(src);
  if (dist > range_) return false;
  if (radio_down || (fault_port_ && fault_port_->roll_drop())) {
    ++lost_;
    ++lost_fault_;
    return true;
  }
  if (loss_prob_ > 0 && rng_.chance(loss_prob_)) {
    ++lost_;
    return true;
  }
  ++delivered_;
  // Propagation (~3.3 ns/m) + channel access jitter (0..2 ms DSRC CCH).
  const SimTime delay =
      SimTime::from_ns(static_cast<std::uint64_t>(dist * 3.34)) +
      SimTime::from_us(rng_.uniform(2000));
  sched_.schedule_in(delay,
                     [this, rx, msg] { rx->on_spdu(msg, sched_.now()); });
  return true;
}

void V2xMedium::broadcast(V2xRadio* from, Spdu msg) {
  ++transmitted_;
  const Position src = from->position();
  const bool radio_down = fault_port_ && fault_port_->down();
  if (grid_) {
    // Refresh the sender's record (senders are the fast movers that matter
    // most, and they pass through here at BSM rate anyway).
    const auto from_it = attach_seq_.find(from);
    if (from_it != attach_seq_.end()) {
      grid_->update(from_it->second, src.x, src.y);
    }
    // Candidates sorted by attach seq == linear-scan order, so rng_ draws
    // happen in exactly the order the linear path would make them.
    grid_->query(src.x, src.y, range_ + grid_slack_, query_buf_);
    for (const std::uint64_t seq : query_buf_) {
      V2xRadio* rx = by_seq_.find(seq)->second;
      if (rx == from) continue;
      deliver_roll(rx, msg, src, radio_down);
    }
  } else {
    for (V2xRadio* rx : radios_) {
      if (rx == from) continue;
      deliver_roll(rx, msg, src, radio_down);
    }
  }
  for (V2xRadio* mon : monitors_) {
    sched_.schedule_in(SimTime::from_us(1),
                       [this, mon, msg] { mon->on_spdu(msg, sched_.now()); });
  }
}

namespace {
/// Plausibility thresholds for misbehavior detection.
constexpr double kMaxSpeedMps = 70.0;          // ~250 km/h
constexpr double kPositionJumpMarginM = 15.0;  // tolerance over speed * dt
}  // namespace

std::string MisbehaviorDetector::check(const Bsm& bsm, SimTime now) {
  std::string reason;
  if (bsm.speed_mps > kMaxSpeedMps) {
    reason = "implausible_speed";
  } else {
    const auto it = last_.find(bsm.temp_id);
    if (it != last_.end() && now > it->second.at) {
      const double dt = (now - it->second.at).seconds();
      const double moved = bsm.pos.distance_to(it->second.pos);
      const double max_move = kMaxSpeedMps * dt + kPositionJumpMarginM;
      if (moved > max_move) reason = "position_jump";
    }
  }
  last_[bsm.temp_id] = LastSeen{bsm.pos, now};
  if (!reason.empty()) ++flagged_;
  return reason;
}

VehicleNode::VehicleNode(Scheduler& sched, V2xMedium& medium, std::string name,
                         Position start, double vx_mps, double vy_mps,
                         const TrustStore& trust,
                         CertificateAuthority::PseudonymBatch pseudonyms,
                         PseudonymPolicy policy,
                         const sim::Telemetry* telemetry)
    : V2xRadio(std::move(name)),
      sched_(sched),
      medium_(medium),
      start_(start),
      vx_(vx_mps),
      vy_(vy_mps),
      t0_(sched.now()),
      trust_(trust),
      pseudonyms_(std::move(pseudonyms)),
      policy_(policy),
      trace_("v2x." + this->name(), {},
             telemetry ? *telemetry : sim::Telemetry{}),
      verify_engine_(trace_.metrics()) {
  if (pseudonyms_.certs.empty()) {
    throw std::invalid_argument("VehicleNode: empty pseudonym pool");
  }
  // Temp id derived from the pseudonym cert id (unlinkable across certs).
  temp_id_ = util::load_be32(pseudonyms_.certs[0].id().data());
  // A node without a plane stays silent: an unbounded private buffer for
  // each of thousands of nodes would dominate memory.
  trace_.set_enabled(telemetry != nullptr);
  medium_.attach(this);
}

Position VehicleNode::position() const {
  const double t = (sched_.now() - t0_).seconds();
  return Position{start_.x + vx_ * t, start_.y + vy_ * t};
}

void VehicleNode::start() {
  bsm_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, SimTime::from_ms(100), [this] { send_bsm(); }, SimTime::zero());
  if (policy_.enabled && pseudonyms_.certs.size() > 1) {
    rotate_task_ = std::make_unique<sim::PeriodicTask>(
        sched_, policy_.rotation_period, [this] { rotate_pseudonym(); },
        policy_.rotation_period);
  }
}

void VehicleNode::stop() {
  bsm_task_.reset();
  rotate_task_.reset();
}

void VehicleNode::send_bsm() {
  Bsm bsm;
  bsm.temp_id = temp_id_;
  bsm.pos = position();
  bsm.speed_mps = std::sqrt(vx_ * vx_ + vy_ * vy_);
  bsm.heading_rad = std::atan2(vy_, vx_);
  bsm.generated = sched_.now();
  const Spdu msg =
      Spdu::sign(Psid::kBsm, sched_.now(), bsm.serialize(),
                 pseudonyms_.certs[pseudo_idx_], pseudonyms_.keys[pseudo_idx_]);
  ++stats_.bsm_sent;
  ASECK_TRACE(trace_, sched_.now(), k_bsm_tx_,
              "temp_id=" + std::to_string(temp_id_));
  medium_.broadcast(this, msg);
}

void VehicleNode::rotate_pseudonym() {
  if (pseudo_idx_ + 1 >= pseudonyms_.certs.size()) return;  // pool exhausted
  ++pseudo_idx_;
  temp_id_ = util::load_be32(pseudonyms_.certs[pseudo_idx_].id().data());
}

void VehicleNode::enable_opportunistic(DeferredSpduVerifier& v) {
  deferred_ = &v;
  deferred_producer_ = v.add_producer();
}

void VehicleNode::on_spdu(const Spdu& msg, SimTime) {
  ++stats_.spdu_received;
  const SimTime now = sched_.now();
  const Position me = position();
  std::optional<Bsm> bsm = Bsm::parse(msg.payload);
  const Position* claimed = nullptr;
  Position claimed_pos;
  if (bsm) {
    claimed_pos = bsm->pos;
    claimed = &claimed_pos;
  }
  if (deferred_) {
    // Opportunistic admission: cheap checks now, provisional admit, the
    // signature verdict arrives at the next pipeline flush.
    const VerifyStatus pre =
        verify_spdu_presig(msg, trust_, now, verify_policy_, &me, claimed);
    if (pre != VerifyStatus::kOk) {
      ++stats_.rejected[pre];
      ASECK_TRACE(trace_, now, k_verify_fail_,
                  "status=" + std::to_string(static_cast<int>(pre)));
      return;
    }
    ++stats_.admitted_provisional;
    std::uint32_t tid = 0;
    if (bsm) {
      tid = bsm->temp_id;
      const std::string flag = misbehavior_.check(*bsm, now);
      if (!flag.empty()) {
        ++stats_.misbehavior_flags;
        ASECK_TRACE(trace_, now, k_misbehavior_, flag);
        return;
      }
      if (bsm_sink_) bsm_sink_(*bsm, msg, now);  // acting on unverified data
    }
    deferred_->submit(
        deferred_producer_, msg, now,
        [this, tid](bool ok, SimTime admitted_at, SimTime resolved_at) {
          stats_.exposure_window_us.add(
              (resolved_at - admitted_at).seconds() * 1e6);
          if (ok) {
            ++stats_.verified_ok;
            return;
          }
          ++stats_.revoked_late;
          ++stats_.rejected[VerifyStatus::kBadSignature];
          ASECK_TRACE(trace_, resolved_at, k_revoke_,
                      "temp_id=" + std::to_string(tid));
          if (revoke_sink_) revoke_sink_(tid, admitted_at, resolved_at);
        });
    return;
  }
  const VerifyStatus status = verify_spdu(msg, trust_, now, verify_policy_,
                                          &me, claimed, &verify_engine_);
  stats_.verify_latency_us.add(kVerifyCostUs);
  if (status != VerifyStatus::kOk) {
    ++stats_.rejected[status];
    ASECK_TRACE(trace_, now, k_verify_fail_,
                "status=" + std::to_string(static_cast<int>(status)));
    return;
  }
  ++stats_.verified_ok;
  if (bsm) {
    const std::string flag = misbehavior_.check(*bsm, now);
    if (!flag.empty()) {
      ++stats_.misbehavior_flags;
      ASECK_TRACE(trace_, now, k_misbehavior_, flag);
      return;
    }
    if (bsm_sink_) bsm_sink_(*bsm, msg, now);
  }
}

RsuNode::RsuNode(Scheduler& sched, V2xMedium& medium, std::string name,
                 Position pos, const TrustStore& trust, Certificate cert,
                 crypto::EcdsaPrivateKey key)
    : V2xRadio(std::move(name)),
      sched_(sched),
      medium_(medium),
      pos_(pos),
      trust_(trust),
      cert_(std::move(cert)),
      key_(std::move(key)) {
  medium_.attach(this);
}

void RsuNode::on_spdu(const Spdu& msg, SimTime) {
  ++received_;
  if (verify_spdu(msg, trust_, sched_.now(), VerifyPolicy{}, nullptr, nullptr,
                  &verify_engine_) == VerifyStatus::kOk) {
    ++verified_;
  }
}

void RsuNode::broadcast_alert(util::Bytes payload) {
  const Spdu msg = Spdu::sign(Psid::kRoadsideAlert, sched_.now(),
                              std::move(payload), cert_, key_);
  medium_.broadcast(this, msg);
}

TrackingAdversary::TrackingAdversary(std::string name, Position pos,
                                     SimTime gap_tolerance, double link_radius_m)
    : V2xRadio(std::move(name)),
      pos_(pos),
      gap_tolerance_(gap_tolerance),
      link_radius_(link_radius_m) {}

void TrackingAdversary::on_spdu(const Spdu& msg, SimTime) {
  // The adversary reads plaintext BSMs; it does not need to verify.
  const auto bsm = Bsm::parse(msg.payload);
  if (!bsm) return;
  ++observed_;
  auto it = tracks_.find(bsm->temp_id);
  if (it == tracks_.end()) {
    Track t;
    t.temp_id = bsm->temp_id;
    t.first_pos = t.last_pos = bsm->pos;
    t.last_speed = bsm->speed_mps;
    t.last_heading = bsm->heading_rad;
    t.first_seen = t.last_seen = bsm->generated;
    tracks_[bsm->temp_id] = t;
  } else {
    it->second.last_pos = bsm->pos;
    it->second.last_speed = bsm->speed_mps;
    it->second.last_heading = bsm->heading_rad;
    it->second.last_seen = bsm->generated;
  }
}

std::vector<std::vector<std::uint32_t>> TrackingAdversary::link_chains() const {
  // Sort tracks by first appearance.
  std::vector<const Track*> by_start;
  by_start.reserve(tracks_.size());
  for (const auto& [id, t] : tracks_) by_start.push_back(&t);
  std::sort(by_start.begin(), by_start.end(),
            [](const Track* a, const Track* b) {
              return a->first_seen < b->first_seen;
            });

  std::map<std::uint32_t, std::uint32_t> successor;  // old id -> new id
  std::map<std::uint32_t, bool> consumed;
  for (const Track* ended : by_start) {
    // Find the best candidate appearing right after `ended` vanishes, near
    // the kinematically predicted position.
    const Track* best = nullptr;
    double best_dist = link_radius_;
    for (const Track* cand : by_start) {
      if (cand == ended || consumed[cand->temp_id]) continue;
      if (cand->first_seen < ended->last_seen) continue;
      if (cand->first_seen - ended->last_seen > gap_tolerance_) continue;
      const double dt = (cand->first_seen - ended->last_seen).seconds();
      const Position predicted{
          ended->last_pos.x + std::cos(ended->last_heading) * ended->last_speed * dt,
          ended->last_pos.y + std::sin(ended->last_heading) * ended->last_speed * dt};
      const double dist = predicted.distance_to(cand->first_pos);
      if (dist < best_dist) {
        best_dist = dist;
        best = cand;
      }
    }
    if (best) {
      successor[ended->temp_id] = best->temp_id;
      consumed[best->temp_id] = true;
    }
  }

  // Build chains from roots (ids that are nobody's successor).
  std::vector<std::vector<std::uint32_t>> chains;
  for (const Track* t : by_start) {
    if (consumed[t->temp_id]) continue;
    std::vector<std::uint32_t> chain{t->temp_id};
    auto it = successor.find(t->temp_id);
    while (it != successor.end()) {
      chain.push_back(it->second);
      it = successor.find(it->second);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace aseck::v2x
