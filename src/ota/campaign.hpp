#pragma once
// Fleet update campaigns and the confirm-or-revert watchdog.
//
// The paper's §5 extensibility drivers (in-field patching at fleet scale)
// and §7 secure-update layer meet operations here: a `CampaignRunner` rolls
// an image out in staggered waves, watches a per-wave abort threshold so a
// bad image or a power-loss storm halts the campaign instead of bricking
// the fleet, and keeps a per-vehicle outcome ledger. Each vehicle streams
// the image into its journaled flash
// (FullVerificationClient::fetch_and_stage_with_retry),
// survives injected power cuts by rebooting (`Flash::boot()`) and resuming
// from the journal watermark, and finishes with install_staged's
// confirm-or-revert deadline.
//
// `ConfirmWatchdog` wires that deadline to `safety::HealthSupervisor` as a
// real supervised entity: a heartbeat emitter beats while the flash is
// healthy (no lapsed unconfirmed activation) and falls silent the moment
// the confirm deadline lapses; the supervisor's escalation ladder then
// fires a reset that runs boot-time recovery, which auto-reverts to the
// previous bank. Missed-confirm detection therefore shows up on the same
// telemetry plane as every other supervision incident (E16).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ecu/flash.hpp"
#include "ecu/kvstore.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "safety/supervisor.hpp"
#include "sim/scheduler.hpp"
#include "util/time.hpp"

namespace aseck::ota {

/// Supervised confirm-or-revert deadline: a safety::Watchdog whose
/// heartbeat is suppressed once the active slot's confirmation deadline has
/// lapsed without commit(); the supervisor's reset handler then runs
/// `Flash::boot()`, which auto-reverts to the previous confirmed bank.
class ConfirmWatchdog {
 public:
  /// Registers `entity` on `supervisor` (call before supervisor.start()).
  ConfirmWatchdog(sim::Scheduler& sched, safety::HealthSupervisor& supervisor,
                  ecu::Flash& flash, std::string entity,
                  util::SimTime check_period);

  /// Starts the heartbeat (and the supervisor, if not yet running).
  void start() { watchdog_.start(); }

  /// Recoveries performed by the supervisor's reset (lapsed deadline hit).
  std::uint64_t auto_reverts() const { return auto_reverts_; }

 private:
  sim::Scheduler& sched_;
  ecu::Flash& flash_;
  std::uint64_t auto_reverts_ = 0;
  safety::Watchdog watchdog_;
};

/// Terminal state of one vehicle in a campaign.
enum class VehicleOutcome {
  kPending,               // not yet dispatched / still in flight
  kSkipped,               // campaign aborted before this vehicle's wave
  kUpdated,               // new image confirmed, no incident
  kUpdatedAfterPowerLoss, // new image confirmed after >=1 power-cut reboot
  kRevertedSelfTest,      // self-test failed; previous bank restored
  kFetchFailed,           // metadata/transport failure; previous bank intact
  kBricked,               // no bootable image after recovery (the invariant)
};
const char* vehicle_outcome_name(VehicleOutcome o);

/// Staggered-wave rollout parameters.
struct CampaignConfig {
  std::size_t wave_size = 4;
  util::SimTime wave_gap = util::SimTime::from_s(10);  // wave end -> next wave
  util::SimTime vehicle_stagger = util::SimTime::from_ms(500);  // within a wave
  /// Abort the campaign when failed/wave_size reaches this ratio (> 1 =
  /// never abort). Failures: reverted self-tests, fetch failures, bricks.
  double wave_abort_ratio = 0.5;
  int max_reboots = 3;  // power-cut recovery attempts per vehicle
  util::SimTime reboot_delay = util::SimTime::from_s(2);
  util::SimTime confirm_timeout = util::SimTime::from_s(30);
  FullVerificationClient::RetryPolicy retry;
  /// Wave-level backpressure against the serving front (needs retry.server;
  /// 0 disables). Before dispatching a wave the runner polls the server's
  /// last-window shed ratio: above pause_shed_ratio the wave PAUSES and
  /// re-polls every backpressure_poll until the ratio recovers to
  /// resume_shed_ratio (hysteresis) or the poll budget runs out — the fleet
  /// operator's half of the admission-control contract.
  double pause_shed_ratio = 0.0;
  double resume_shed_ratio = 0.05;
  util::SimTime backpressure_poll = util::SimTime::from_s(1);
  int max_backpressure_polls = 120;
};

/// Per-vehicle campaign ledger entry (deterministically exported).
struct VehicleLedger {
  std::string id;
  std::size_t wave = 0;
  VehicleOutcome outcome = VehicleOutcome::kPending;
  int fetch_sessions = 0;    // fetch_and_stage_with_retry invocations
  int power_losses = 0;      // injected cuts survived (fetch or install)
  std::size_t resume_bytes_saved = 0;  // journal bytes never refetched
  double recovery_us = 0.0;  // summed boot-time recovery scan latency
  std::uint32_t final_version = 0;
  OtaError last_error = OtaError::kOk;
  util::SimTime finished_at = util::SimTime::zero();
};

/// Staggered-wave fleet rollout with per-wave abort and outcome ledger.
class CampaignRunner {
 public:
  CampaignRunner(sim::Scheduler& sched, const Repository& director_repo,
                 const Repository& image_repo, std::string image_name,
                 std::string hardware_id, CampaignConfig cfg);

  /// Registers a vehicle (dispatch order = registration order). The flash
  /// and client must outlive the campaign. An empty self_test passes. `kv`
  /// optionally attaches the vehicle's provisioning store so push_config can
  /// reach it.
  void add_vehicle(std::string id, ecu::Flash& flash,
                   FullVerificationClient& client,
                   std::function<bool()> self_test = {},
                   ecu::KvStore* kv = nullptr);

  /// Fleet-wide transactional config push (trust anchors, image signatures,
  /// pseudonym/campaign parameters): commits `txn` into every registered
  /// vehicle's provisioning store. A vehicle whose commit is cut by power
  /// loss reboots (remounts — the cut transaction is invisible, by the
  /// kvstore's atomicity contract) and retries, up to `max_reboots` times.
  struct ConfigPushReport {
    std::size_t vehicles = 0;   // vehicles with an attached kvstore
    std::size_t committed = 0;  // transaction fully applied
    std::size_t retried = 0;    // of those, needed >=1 power-cut reboot
    std::size_t failed = 0;     // still unapplied after max_reboots
  };
  ConfigPushReport push_config(const ecu::KvTransaction& txn,
                               int max_reboots = 3);

  /// Schedules wave 0; `done` fires when the campaign completes or aborts.
  void start(std::function<void()> done = {});

  bool finished() const { return finished_; }
  bool aborted() const { return aborted_; }
  std::size_t waves_dispatched() const { return waves_dispatched_; }
  const std::vector<VehicleLedger>& ledger() const { return ledger_; }
  std::size_t count(VehicleOutcome o) const;
  std::size_t updated() const {
    return count(VehicleOutcome::kUpdated) +
           count(VehicleOutcome::kUpdatedAfterPowerLoss);
  }
  std::size_t bricked() const { return count(VehicleOutcome::kBricked); }
  /// Updated vehicles / fleet size.
  double completion_rate() const;
  std::size_t total_resume_bytes_saved() const;
  /// Waves whose dispatch was delayed at least once by server backpressure.
  std::uint64_t backpressure_pauses() const { return backpressure_pauses_; }

  /// Deterministic ledger export: same seed + same script => byte-identical.
  std::string to_json() const;

 private:
  struct Vehicle {
    ecu::Flash* flash = nullptr;
    FullVerificationClient* client = nullptr;
    std::function<bool()> self_test;
    ecu::KvStore* kv = nullptr;
  };

  void start_wave(std::size_t wave);
  void gate_wave(std::size_t wave, int polls);
  void start_fetch(std::size_t idx);
  void on_fetch_done(std::size_t idx, const FullVerificationClient::RetryOutcome& ro);
  void run_install(std::size_t idx);
  /// Ledger and reboot bookkeeping for one install_staged/confirm_or_revert.
  void settle_install(std::size_t idx, InstallResult r);
  void schedule_reboot(std::size_t idx);
  void reboot(std::size_t idx);
  void finish_vehicle(std::size_t idx, VehicleOutcome o);
  void finish_wave(std::size_t wave);
  bool wave_failure(VehicleOutcome o) const;

  sim::Scheduler& sched_;
  const Repository& director_;
  const Repository& image_repo_;
  std::string image_name_;
  std::string hardware_id_;
  CampaignConfig cfg_;
  std::vector<Vehicle> vehicles_;
  std::vector<VehicleLedger> ledger_;
  std::vector<int> reboots_;  // per-vehicle recovery attempts used
  std::function<void()> done_;
  std::size_t wave_pending_ = 0;   // vehicles still in flight this wave
  std::size_t current_wave_ = 0;
  std::size_t waves_dispatched_ = 0;
  std::uint64_t backpressure_pauses_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool aborted_ = false;
};

}  // namespace aseck::ota
