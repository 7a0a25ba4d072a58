#pragma once
// V2X network entities: broadcast radio medium, vehicles with pseudonym
// rotation, roadside units, plausibility-based misbehavior detection, and a
// passive tracking adversary (the privacy threat of paper Section 4.2).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/verify_engine.hpp"
#include "v2x/grid.hpp"
#include "v2x/opportunistic.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "v2x/message.hpp"

namespace aseck::v2x {

using sim::Scheduler;

/// Anything with an antenna.
class V2xRadio {
 public:
  explicit V2xRadio(std::string name) : name_(std::move(name)) {}
  virtual ~V2xRadio() = default;
  const std::string& name() const { return name_; }
  virtual Position position() const = 0;
  virtual void on_spdu(const Spdu& msg, SimTime at) = 0;

 private:
  std::string name_;
};

/// Range + loss broadcast medium (DSRC/C-V2X abstraction).
///
/// Neighbor discovery defaults to a linear scan over attached radios (O(N)
/// per broadcast). `enable_grid_index` switches to a uniform-grid spatial
/// index (v2x/grid.hpp): candidates come from the cells overlapping the
/// range circle and are visited in attach order, so grid-mode delivery —
/// including every per-delivery RNG draw — is bit-identical to the linear
/// scan as long as no radio outruns the configured slack between reindexes.
///
/// Faults (sim::FaultHook): radio-loss windows (down()) black out all
/// receivers; drop faults lose individual receptions. Monitors (sniffers)
/// are unaffected.
class V2xMedium : public sim::FaultHook {
 public:
  V2xMedium(Scheduler& sched, double range_m = 300.0, double loss_prob = 0.0,
            std::uint64_t seed = 1);

  void attach(V2xRadio* radio);
  void detach(V2xRadio* radio);
  /// Attaches a monitor that hears every transmission regardless of range
  /// and loss (a distributed sniffing network, e.g. the E3 adversary).
  void attach_monitor(V2xRadio* radio);

  /// Broadcasts from `from`'s current position to all radios in range.
  void broadcast(V2xRadio* from, Spdu msg);

  /// Switches neighbor discovery to the uniform-grid index. `cell_m` <= 0
  /// keys cells to the radio range (the sharded-world cell geometry).
  /// `slack_m` widens every query: radios may drift up to `slack_m` from
  /// their recorded position before a `reindex_grid()` call is needed for
  /// delivery to stay exact. Senders refresh their own record on every
  /// broadcast; everyone else refreshes on reindex_grid().
  void enable_grid_index(double cell_m = 0.0, double slack_m = 60.0);
  bool grid_enabled() const { return grid_ != nullptr; }
  /// Re-records every attached radio's current position in the grid.
  void reindex_grid();

  std::uint64_t transmitted() const { return transmitted_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return lost_; }
  /// Deliveries suppressed by injected radio-loss faults (subset of lost()).
  std::uint64_t lost_fault() const { return lost_fault_; }
  /// Receivers exact-distance-checked across all broadcasts: the neighbor
  /// discovery cost metric E2 compares between linear and grid modes.
  std::uint64_t receivers_checked() const { return receivers_checked_; }

 private:
  bool deliver_roll(V2xRadio* rx, const Spdu& msg, const Position& src,
                    bool radio_down);

  Scheduler& sched_;
  double range_;
  double loss_prob_;
  util::Rng rng_;
  std::vector<V2xRadio*> radios_;  // ascending attach_seq_ order
  std::vector<V2xRadio*> monitors_;
  std::unique_ptr<SpatialGrid> grid_;
  double grid_slack_ = 0.0;
  std::uint64_t next_attach_seq_ = 1;
  std::unordered_map<V2xRadio*, std::uint64_t> attach_seq_;
  std::unordered_map<std::uint64_t, V2xRadio*> by_seq_;
  std::vector<std::uint64_t> query_buf_;
  std::uint64_t transmitted_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t lost_fault_ = 0;
  std::uint64_t receivers_checked_ = 0;
};

/// Plausibility-based misbehavior detection on received BSMs.
class MisbehaviorDetector {
 public:
  /// Returns a non-empty reason string if the BSM is implausible.
  std::string check(const Bsm& bsm, SimTime now);

  std::uint64_t flagged() const { return flagged_; }

 private:
  struct LastSeen {
    Position pos;
    SimTime at;
  };
  std::map<std::uint32_t, LastSeen> last_;
  std::uint64_t flagged_ = 0;
};

/// Pseudonym rotation policy.
struct PseudonymPolicy {
  SimTime rotation_period = SimTime::from_s(60);
  bool enabled = true;
};

struct VehicleStats {
  std::uint64_t bsm_sent = 0;
  std::uint64_t spdu_received = 0;
  std::uint64_t verified_ok = 0;
  std::map<VerifyStatus, std::uint64_t> rejected;
  std::uint64_t misbehavior_flags = 0;
  util::Samples verify_latency_us;  // crypto cost model per verification
  // Opportunistic mode only:
  std::uint64_t admitted_provisional = 0;  // passed presig checks, deferred
  std::uint64_t revoked_late = 0;          // deferred verify failed
  util::Samples exposure_window_us;        // admit -> verdict, sim-time
};

/// A vehicle: drives a straight (configurable-velocity) trajectory,
/// broadcasts signed BSMs at 10 Hz, rotates pseudonyms, verifies and
/// plausibility-checks everything it hears. A node built on a telemetry
/// plane records on it from its first BSM; one built without stays silent,
/// since V2X scale runs have thousands of nodes at 10 Hz.
class VehicleNode : public V2xRadio {
 public:
  VehicleNode(Scheduler& sched, V2xMedium& medium, std::string name,
              Position start, double vx_mps, double vy_mps,
              const TrustStore& trust,
              CertificateAuthority::PseudonymBatch pseudonyms,
              PseudonymPolicy policy = {},
              const sim::Telemetry* telemetry = nullptr);

  Position position() const override;
  void on_spdu(const Spdu& msg, SimTime at) override;

  /// Starts BSM broadcasting (10 Hz) and pseudonym rotation.
  void start();
  void stop();

  const VehicleStats& stats() const { return stats_; }

  std::uint32_t current_temp_id() const { return temp_id_; }
  std::size_t pseudonym_index() const { return pseudo_idx_; }

  /// Hook invoked for every plausible, verified BSM (the ADAS consumer).
  /// In opportunistic mode "verified" means "provisionally admitted" — a
  /// revoke may follow.
  using BsmSink = std::function<void(const Bsm&, const Spdu&, SimTime)>;
  void set_bsm_sink(BsmSink sink) { bsm_sink_ = std::move(sink); }

  /// Opportunistic mode: admit BSMs after the cheap synchronous checks and
  /// defer the signature to `v`'s batch pipeline. The verifier must outlive
  /// this node. Call before traffic starts.
  void enable_opportunistic(DeferredSpduVerifier& v);
  bool opportunistic() const { return deferred_ != nullptr; }

  /// Hook invoked when a provisionally admitted BSM is revoked by a late
  /// verify failure (the ADAS unwind path, E11's safety-window oracle).
  using RevokeSink =
      std::function<void(std::uint32_t temp_id, SimTime admitted_at,
                         SimTime revoked_at)>;
  void set_revoke_sink(RevokeSink sink) { revoke_sink_ = std::move(sink); }

  /// Model cost of one ECDSA verification in microseconds (automotive-grade
  /// HSM with P-256 accelerator).
  static constexpr double kVerifyCostUs = 350.0;
  static constexpr double kSignCostUs = 180.0;

 private:
  void send_bsm();
  void rotate_pseudonym();

  Scheduler& sched_;
  V2xMedium& medium_;
  Position start_;
  double vx_, vy_;
  SimTime t0_ = SimTime::zero();
  const TrustStore& trust_;
  CertificateAuthority::PseudonymBatch pseudonyms_;
  PseudonymPolicy policy_;
  VerifyPolicy verify_policy_;
  std::size_t pseudo_idx_ = 0;
  std::uint32_t temp_id_ = 0;
  MisbehaviorDetector misbehavior_;
  sim::TraceScope trace_;
  crypto::VerifyEngine verify_engine_;
  VehicleStats stats_;
  const sim::TraceId k_bsm_tx_ = trace_.kind("bsm_tx");
  const sim::TraceId k_verify_fail_ = trace_.kind("verify_fail");
  const sim::TraceId k_misbehavior_ = trace_.kind("misbehavior");
  BsmSink bsm_sink_;
  RevokeSink revoke_sink_;
  DeferredSpduVerifier* deferred_ = nullptr;
  std::size_t deferred_producer_ = 0;
  const sim::TraceId k_revoke_ = trace_.kind("bsm_revoke");
  std::unique_ptr<sim::PeriodicTask> bsm_task_;
  std::unique_ptr<sim::PeriodicTask> rotate_task_;
};

/// Roadside unit: static receiver/verifier, can broadcast alerts.
class RsuNode : public V2xRadio {
 public:
  RsuNode(Scheduler& sched, V2xMedium& medium, std::string name, Position pos,
          const TrustStore& trust, Certificate cert,
          crypto::EcdsaPrivateKey key);

  Position position() const override { return pos_; }
  void on_spdu(const Spdu& msg, SimTime at) override;

  void broadcast_alert(util::Bytes payload);

  std::uint64_t received() const { return received_; }
  std::uint64_t verified() const { return verified_; }

 private:
  Scheduler& sched_;
  V2xMedium& medium_;
  Position pos_;
  const TrustStore& trust_;
  Certificate cert_;
  crypto::EcdsaPrivateKey key_;
  crypto::VerifyEngine verify_engine_;
  std::uint64_t received_ = 0;
  std::uint64_t verified_ = 0;
};

/// Passive eavesdropper attempting to link pseudonyms into vehicle tracks by
/// kinematic continuity. Measures the privacy value of pseudonym rotation.
class TrackingAdversary : public V2xRadio {
 public:
  /// `gap_tolerance`: max time between last sighting of one temp id and
  /// first sighting of its successor to consider linking.
  /// `link_radius_m`: how close the predicted position must be.
  TrackingAdversary(std::string name, Position pos, SimTime gap_tolerance,
                    double link_radius_m);

  Position position() const override { return pos_; }
  void on_spdu(const Spdu& msg, SimTime at) override;

  /// Runs the linking heuristic; returns chains of temp ids believed to be
  /// the same vehicle.
  std::vector<std::vector<std::uint32_t>> link_chains() const;

  std::uint64_t observed() const { return observed_; }

 private:
  struct Track {
    std::uint32_t temp_id;
    Position first_pos, last_pos;
    double last_speed = 0, last_heading = 0;
    SimTime first_seen, last_seen;
  };
  Position pos_;
  SimTime gap_tolerance_;
  double link_radius_;
  std::map<std::uint32_t, Track> tracks_;
  std::uint64_t observed_ = 0;
};

}  // namespace aseck::v2x
