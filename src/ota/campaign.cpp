#include "ota/campaign.hpp"

#include <algorithm>
#include <cstdio>

namespace aseck::ota {

// --- ConfirmWatchdog ---------------------------------------------------------

ConfirmWatchdog::ConfirmWatchdog(sim::Scheduler& sched,
                                 safety::HealthSupervisor& supervisor,
                                 ecu::Flash& flash, std::string entity,
                                 util::SimTime check_period)
    : sched_(sched),
      flash_(flash),
      watchdog_(
          sched, supervisor, std::move(entity), check_period,
          [this] {
            const util::SimTime dl = flash_.confirm_deadline();
            const bool lapsed = flash_.confirm_pending() &&
                                dl != util::SimTime::zero() &&
                                sched_.now() > dl;
            return !lapsed;
          },
          [this](const std::string&) {
            // The watchdog reset IS the reboot: boot-time recovery
            // auto-reverts the lapsed ACTIVE-unconfirmed slot to the previous
            // confirmed bank.
            const auto rep = flash_.boot(sched_.now());
            if (rep.auto_reverted) ++auto_reverts_;
            return rep.bootable;
          }) {}

// --- CampaignRunner ----------------------------------------------------------

const char* vehicle_outcome_name(VehicleOutcome o) {
  switch (o) {
    case VehicleOutcome::kPending: return "pending";
    case VehicleOutcome::kSkipped: return "skipped";
    case VehicleOutcome::kUpdated: return "updated";
    case VehicleOutcome::kUpdatedAfterPowerLoss:
      return "updated_after_power_loss";
    case VehicleOutcome::kRevertedSelfTest: return "reverted_self_test";
    case VehicleOutcome::kFetchFailed: return "fetch_failed";
    case VehicleOutcome::kBricked: return "bricked";
  }
  return "?";
}

CampaignRunner::CampaignRunner(sim::Scheduler& sched,
                               const Repository& director_repo,
                               const Repository& image_repo,
                               std::string image_name, std::string hardware_id,
                               CampaignConfig cfg)
    : sched_(sched),
      director_(director_repo),
      image_repo_(image_repo),
      image_name_(std::move(image_name)),
      hardware_id_(std::move(hardware_id)),
      cfg_(cfg) {
  if (cfg_.wave_size == 0) cfg_.wave_size = 1;
}

void CampaignRunner::add_vehicle(std::string id, ecu::Flash& flash,
                                 FullVerificationClient& client,
                                 std::function<bool()> self_test,
                                 ecu::KvStore* kv) {
  Vehicle v;
  v.flash = &flash;
  v.client = &client;
  v.self_test = std::move(self_test);
  v.kv = kv;
  vehicles_.push_back(std::move(v));
  VehicleLedger led;
  led.id = std::move(id);
  led.wave = (vehicles_.size() - 1) / cfg_.wave_size;
  ledger_.push_back(std::move(led));
  reboots_.push_back(0);
}

CampaignRunner::ConfigPushReport CampaignRunner::push_config(
    const ecu::KvTransaction& txn, int max_reboots) {
  ConfigPushReport rep;
  for (Vehicle& v : vehicles_) {
    if (!v.kv) continue;
    ++rep.vehicles;
    bool committed = false;
    bool rebooted = false;
    for (int attempt = 0; attempt <= max_reboots; ++attempt) {
      if (!v.kv->mounted() || v.kv->lost_power()) {
        // The power-cut reboot: mount-time recovery discards the cut
        // transaction entirely (atomicity), then we retry from scratch.
        v.kv->mount();
        if (attempt > 0) rebooted = true;
      }
      if (v.kv->commit(txn)) {
        committed = true;
        break;
      }
    }
    if (committed) {
      ++rep.committed;
      if (rebooted) ++rep.retried;
    } else {
      ++rep.failed;
    }
  }
  return rep;
}

void CampaignRunner::start(std::function<void()> done) {
  if (started_) return;
  started_ = true;
  done_ = std::move(done);
  if (vehicles_.empty()) {
    finished_ = true;
    if (done_) done_();
    return;
  }
  start_wave(0);
}

void CampaignRunner::gate_wave(std::size_t wave, int polls) {
  RepositoryServer* srv = cfg_.retry.server;
  if (srv && cfg_.pause_shed_ratio > 0) {
    srv->observe(sched_.now());  // roll the window even while traffic paused
    const bool paused = polls > 0;
    const double threshold =
        paused ? cfg_.resume_shed_ratio : cfg_.pause_shed_ratio;
    if (srv->last_window_shed_ratio() > threshold &&
        polls < cfg_.max_backpressure_polls) {
      if (!paused) ++backpressure_pauses_;
      sched_.schedule_after(cfg_.backpressure_poll, [this, wave, polls] {
        gate_wave(wave, polls + 1);
      });
      return;
    }
  }
  start_wave(wave);
}

void CampaignRunner::start_wave(std::size_t wave) {
  current_wave_ = wave;
  ++waves_dispatched_;
  const std::size_t begin = wave * cfg_.wave_size;
  const std::size_t end =
      std::min(begin + cfg_.wave_size, vehicles_.size());
  wave_pending_ = end - begin;
  for (std::size_t i = begin; i < end; ++i) {
    const util::SimTime delay =
        util::SimTime::from_ns(cfg_.vehicle_stagger.ns * (i - begin));
    sched_.schedule_after(delay, [this, i] { start_fetch(i); });
  }
}

void CampaignRunner::start_fetch(std::size_t idx) {
  Vehicle& v = vehicles_[idx];
  ++ledger_[idx].fetch_sessions;
  const std::uint32_t installed =
      v.flash->active() ? v.flash->active()->version : 0;
  v.client->fetch_and_stage_with_retry(
      sched_, director_, image_repo_, image_name_, hardware_id_, installed,
      cfg_.retry, *v.flash,
      [this, idx](const FullVerificationClient::RetryOutcome& ro) {
        on_fetch_done(idx, ro);
      });
}

void CampaignRunner::on_fetch_done(
    std::size_t idx, const FullVerificationClient::RetryOutcome& ro) {
  VehicleLedger& led = ledger_[idx];
  led.resume_bytes_saved += ro.resume_bytes_saved;
  led.last_error = ro.outcome.error;
  if (ro.outcome.error == OtaError::kOk) {
    run_install(idx);
    return;
  }
  if (ro.outcome.error == OtaError::kPowerLoss) {
    ++led.power_losses;
    schedule_reboot(idx);
    return;
  }
  finish_vehicle(idx, VehicleOutcome::kFetchFailed);
}

void CampaignRunner::run_install(std::size_t idx) {
  Vehicle& v = vehicles_[idx];
  settle_install(idx, install_staged(*v.flash, sched_.now(),
                                     cfg_.confirm_timeout, v.self_test));
}

void CampaignRunner::settle_install(std::size_t idx, InstallResult r) {
  switch (r) {
    case InstallResult::kCommitted:
      finish_vehicle(idx, ledger_[idx].power_losses > 0
                              ? VehicleOutcome::kUpdatedAfterPowerLoss
                              : VehicleOutcome::kUpdated);
      return;
    case InstallResult::kRevertedSelfTest:
      finish_vehicle(idx, VehicleOutcome::kRevertedSelfTest);
      return;
    case InstallResult::kPowerLoss:
      ++ledger_[idx].power_losses;
      schedule_reboot(idx);
      return;
    case InstallResult::kStageRejected:
      finish_vehicle(idx, VehicleOutcome::kFetchFailed);
      return;
  }
}

void CampaignRunner::schedule_reboot(std::size_t idx) {
  sched_.schedule_after(cfg_.reboot_delay, [this, idx] { reboot(idx); });
}

void CampaignRunner::reboot(std::size_t idx) {
  Vehicle& v = vehicles_[idx];
  VehicleLedger& led = ledger_[idx];
  const ecu::Flash::BootReport rep = v.flash->boot(sched_.now());
  led.recovery_us += rep.scan_us;
  if (!rep.bootable) {
    finish_vehicle(idx, VehicleOutcome::kBricked);
    return;
  }
  if (++reboots_[idx] > cfg_.max_reboots) {
    // Recovery budget exhausted; the vehicle keeps its previous image.
    finish_vehicle(idx, VehicleOutcome::kFetchFailed);
    return;
  }
  if (v.flash->confirm_pending()) {
    // The cut hit the commit marker: new image active but unconfirmed.
    // power_losses > 0 here, so a commit settles as kUpdatedAfterPowerLoss.
    settle_install(idx, confirm_or_revert(*v.flash, v.self_test));
    return;
  }
  if (v.flash->staged()) {
    // Journal sealed before the cut; only activation remains.
    run_install(idx);
    return;
  }
  // Resume the download from the recovered journal watermark.
  start_fetch(idx);
}

void CampaignRunner::finish_vehicle(std::size_t idx, VehicleOutcome o) {
  VehicleLedger& led = ledger_[idx];
  if (led.outcome != VehicleOutcome::kPending) return;
  led.outcome = o;
  led.finished_at = sched_.now();
  const ecu::FirmwareImage* img = vehicles_[idx].flash->active();
  led.final_version = img ? img->version : 0;
  if (led.wave == current_wave_ && wave_pending_ > 0) {
    if (--wave_pending_ == 0) finish_wave(current_wave_);
  }
}

bool CampaignRunner::wave_failure(VehicleOutcome o) const {
  return o == VehicleOutcome::kRevertedSelfTest ||
         o == VehicleOutcome::kFetchFailed || o == VehicleOutcome::kBricked;
}

void CampaignRunner::finish_wave(std::size_t wave) {
  const std::size_t begin = wave * cfg_.wave_size;
  const std::size_t end =
      std::min(begin + cfg_.wave_size, vehicles_.size());
  std::size_t failures = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (wave_failure(ledger_[i].outcome)) ++failures;
  }
  const bool abort = static_cast<double>(failures) /
                         static_cast<double>(end - begin) >=
                     cfg_.wave_abort_ratio;
  const bool more = end < vehicles_.size();
  if (abort) aborted_ = true;
  if (abort && more) {
    for (std::size_t i = end; i < vehicles_.size(); ++i) {
      ledger_[i].outcome = VehicleOutcome::kSkipped;
      ledger_[i].finished_at = sched_.now();
      const ecu::FirmwareImage* img = vehicles_[i].flash->active();
      ledger_[i].final_version = img ? img->version : 0;
    }
    finished_ = true;
    if (done_) done_();
    return;
  }
  if (!more) {
    finished_ = true;
    if (done_) done_();
    return;
  }
  sched_.schedule_after(cfg_.wave_gap,
                        [this, wave] { gate_wave(wave + 1, 0); });
}

std::size_t CampaignRunner::count(VehicleOutcome o) const {
  std::size_t n = 0;
  for (const VehicleLedger& l : ledger_) n += l.outcome == o ? 1 : 0;
  return n;
}

double CampaignRunner::completion_rate() const {
  if (ledger_.empty()) return 0.0;
  return static_cast<double>(updated()) /
         static_cast<double>(ledger_.size());
}

std::size_t CampaignRunner::total_resume_bytes_saved() const {
  std::size_t n = 0;
  for (const VehicleLedger& l : ledger_) n += l.resume_bytes_saved;
  return n;
}

std::string CampaignRunner::to_json() const {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "{\"image\":\"%s\",\"fleet\":%zu,\"waves\":%zu,"
                "\"aborted\":%s,\"updated\":%zu,\"bricked\":%zu,"
                "\"completion_rate\":%.4f,\"resume_bytes_saved\":%zu,"
                "\"backpressure_pauses\":%llu,\"vehicles\":[",
                image_name_.c_str(), ledger_.size(), waves_dispatched_,
                aborted_ ? "true" : "false", updated(), bricked(),
                completion_rate(), total_resume_bytes_saved(),
                static_cast<unsigned long long>(backpressure_pauses_));
  std::string out = buf;
  bool first = true;
  for (const VehicleLedger& l : ledger_) {
    if (!first) out += ",";
    first = false;
    std::snprintf(
        buf, sizeof buf,
        "{\"id\":\"%s\",\"wave\":%zu,\"outcome\":\"%s\","
        "\"fetch_sessions\":%d,\"power_losses\":%d,"
        "\"resume_bytes_saved\":%zu,\"recovery_us\":%.3f,"
        "\"final_version\":%u,\"last_error\":\"%s\",\"finished_ns\":%llu}",
        l.id.c_str(), l.wave, vehicle_outcome_name(l.outcome),
        l.fetch_sessions, l.power_losses, l.resume_bytes_saved, l.recovery_us,
        l.final_version, ota_error_name(l.last_error),
        static_cast<unsigned long long>(l.finished_at.ns));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace aseck::ota
