// Experiment E18 — power-loss-atomic A/B updates (paper §5: long in-field
// lifetime and in-field patching demand an install path that survives the
// most common field hazard; §7: the secure-update layer's rollback
// protection must hold through torn writes).
//
// Three parts:
//
//   A. Exhaustive cut sweep: a multi-page install (journal header, every
//      page program, STAGED/ACTIVE/CONFIRMED marker writes) is re-run with
//      the power cut placed at every single write-op index, plus one
//      cut-free control run. After each cut the ECU reboots through
//      `Flash::boot()` and the invariant is checked: it boots a CRC-valid
//      image that byte-equals either the old or the new firmware — never a
//      torn one, never none — then resumes from the journal watermark and
//      finishes the update.
//
//   B. Seeded Poisson campaign sweep: a fleet updates through
//      `ota::CampaignRunner` in staggered waves while every flash write op
//      rolls Bernoulli(p) power loss (FaultKind::kPowerLoss). Reported:
//      campaign completion rate, power losses survived, resume bytes saved,
//      bricked vehicles (must be zero). A bad-image campaign shows the
//      per-wave abort threshold halting the rollout after one wave.
//
//   C. Confirm watchdog: an activated-but-never-confirmed image whose
//      deadline lapses is auto-reverted by the `safety::HealthSupervisor`
//      escalation ladder (ota::ConfirmWatchdog).
//
// Exit code = number of invariant violations (torn/bricked boots, failed
// resumes, missed auto-revert), capped at 255. Output is bit-deterministic
// per seed: the `determinism.e18` ctest compares two `--smoke --seed 42` runs.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ecu/flash.hpp"
#include "ota/campaign.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "safety/supervisor.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"

using namespace aseck;
using ecu::Flash;
using ecu::FirmwareImage;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using sim::SimTime;
using util::Bytes;

namespace {

Bytes patterned(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xFF);
  }
  return b;
}

// --- Part A: exhaustive write-op cut sweep -----------------------------------

struct SweepRow {
  std::int64_t cut_op = -1;
  std::string phase;  // install step the cut interrupted
  bool cut = false;
  bool boot_ok = false;
  std::uint32_t booted_version = 0;  // right after recovery
  std::uint64_t resume_saved = 0;    // journal bytes not rewritten
  std::uint32_t final_version = 0;   // after the resumed update finishes
  double recovery_us = 0.0;
  int violations = 0;
};

SweepRow run_cut(std::int64_t k, std::uint64_t seed, const FirmwareImage& oldf,
                 const FirmwareImage& newf) {
  Scheduler sched;
  FaultPlan plan(sched, seed);
  FaultSpec spec;
  spec.target = "ecu.flash";
  spec.kind = FaultKind::kPowerLoss;
  spec.probability = 0.0;  // purely scripted: exact write-op index
  spec.page_index = k;
  plan.window(SimTime::zero(), SimTime::from_s(3600), spec);
  sched.run_until(SimTime::from_ms(1));  // arm the window

  Flash flash;
  flash.provision(oldf);
  flash.set_fault_port(&plan.port("ecu.flash"));

  SweepRow row;
  row.cut_op = k;
  const SimTime t0 = SimTime::from_s(1);
  const SimTime confirm = SimTime::from_s(30);

  bool cut = false;
  if (!flash.stage(newf)) {
    if (flash.lost_power()) {
      cut = true;
      row.phase = "stage";
    } else {
      ++row.violations;  // stage refused without a cut
      row.phase = "stage_rejected";
    }
  }
  if (!cut && row.violations == 0) {
    if (!flash.activate(t0, confirm)) {
      if (flash.lost_power()) {
        cut = true;
        row.phase = "activate";
      } else {
        ++row.violations;
        row.phase = "activate_rejected";
      }
    }
  }
  if (!cut && row.violations == 0) {
    flash.commit();
    if (flash.lost_power()) {
      cut = true;
      row.phase = "commit";
    }
  }
  row.cut = cut;
  if (!cut && row.violations == 0) row.phase = "complete";

  if (cut) {
    // Reboot within the confirmation window and check the invariant.
    const SimTime t1 = t0 + SimTime::from_s(5);
    const Flash::BootReport rep = flash.boot(t1);
    row.recovery_us = rep.scan_us;
    row.boot_ok = rep.bootable;
    if (!rep.bootable) ++row.violations;  // bricked
    const FirmwareImage* a = flash.active();
    if (!a || !(a->code == oldf.code || a->code == newf.code)) {
      ++row.violations;  // booted a torn / unknown image
    }
    row.booted_version = a ? a->version : 0;
    if (rep.staging_resumable) row.resume_saved = rep.resume_watermark;

    // Resume the update from wherever the cut left it.
    if (flash.confirm_pending()) {
      flash.commit();  // cut hit the commit marker; self-test passed earlier
    } else if (!a || a->version != newf.version) {
      if (!flash.stage(newf)) {
        ++row.violations;
      } else if (!flash.activate(t1, confirm)) {
        ++row.violations;
      } else {
        flash.commit();
      }
    }
  }

  const FirmwareImage* fin = flash.active();
  row.final_version = fin ? fin->version : 0;
  if (!fin || fin->version != newf.version || !(fin->code == newf.code)) {
    ++row.violations;  // resumed update did not converge on the new image
  }
  if (flash.rollback_floor() != newf.version) ++row.violations;
  return row;
}

// --- Part B: Poisson power-loss campaign -------------------------------------

struct CampaignRow {
  std::string scenario;
  double p = 0.0;
  std::size_t fleet = 0;
  std::size_t waves = 0;
  bool aborted = false;
  std::size_t updated = 0;
  std::size_t after_power_loss = 0;
  std::size_t skipped = 0;
  std::size_t bricked = 0;
  std::size_t power_losses = 0;
  std::size_t resume_saved = 0;
  double completion = 0.0;
  double recovery_us_total = 0.0;
  std::string json;
};

CampaignRow run_campaign(const std::string& scenario, double p,
                         std::uint64_t seed, bool bad_image) {
  Scheduler sched;
  crypto::Drbg rng{seed};
  ota::Repository director(rng, "director", SimTime::from_s(360000));
  ota::Repository images(rng, "image-repo", SimTime::from_s(360000));
  const Bytes fw = patterned(96 * 1024, 0x5A);
  director.add_target("vecu-fw", fw, 2, "vecu-hw");
  images.add_target("vecu-fw", fw, 2, "vecu-hw");
  director.publish(SimTime::from_ms(1));
  images.publish(SimTime::from_ms(1));

  FaultPlan plan(sched, seed);

  ota::CampaignConfig cfg;
  cfg.wave_size = 4;
  cfg.wave_gap = SimTime::from_s(5);
  cfg.vehicle_stagger = SimTime::from_ms(200);
  cfg.wave_abort_ratio = 0.5;
  cfg.max_reboots = 6;
  cfg.reboot_delay = SimTime::from_s(1);
  cfg.confirm_timeout = SimTime::from_s(30);
  cfg.retry.max_attempts = 10;
  cfg.retry.initial_backoff = SimTime::from_ms(100);
  cfg.retry.chunk_bytes = 16 * 1024;
  cfg.retry.link_bytes_per_sec = 1'000'000;

  ota::CampaignRunner camp(sched, director, images, "vecu-fw", "vecu-hw", cfg);

  constexpr std::size_t kFleet = 12;
  std::vector<std::unique_ptr<Flash>> flashes;
  std::vector<std::unique_ptr<ota::FullVerificationClient>> clients;
  const FirmwareImage oldf{"vecu-fw", 1, patterned(64 * 1024, 0x11)};
  for (std::size_t i = 0; i < kFleet; ++i) {
    const std::string id = "vm" + std::to_string(i);
    flashes.push_back(std::make_unique<Flash>());
    flashes.back()->provision(oldf);
    flashes.back()->set_fault_port(&plan.port(id + ".flash"));
    if (p > 0) {
      FaultSpec spec;
      spec.target = id + ".flash";
      spec.kind = FaultKind::kPowerLoss;
      spec.probability = p;  // Bernoulli per write op ("Poisson-per-page")
      plan.window(SimTime::zero(), SimTime::from_s(100000), spec);
    }
    clients.push_back(std::make_unique<ota::FullVerificationClient>(
        id, director.trusted_root(), images.trusted_root()));
    camp.add_vehicle(id, *flashes.back(), *clients.back(),
                     bad_image ? std::function<bool()>([] { return false; })
                               : std::function<bool()>{});
  }
  camp.start();
  sched.run_until(SimTime::from_s(4000));

  CampaignRow row;
  row.scenario = scenario;
  row.p = p;
  row.fleet = kFleet;
  row.waves = camp.waves_dispatched();
  row.aborted = camp.aborted();
  row.updated = camp.updated();
  row.after_power_loss = camp.count(ota::VehicleOutcome::kUpdatedAfterPowerLoss);
  row.skipped = camp.count(ota::VehicleOutcome::kSkipped);
  row.bricked = camp.bricked();
  row.completion = camp.completion_rate();
  row.resume_saved = camp.total_resume_bytes_saved();
  for (const ota::VehicleLedger& l : camp.ledger()) {
    row.power_losses += static_cast<std::size_t>(l.power_losses);
    row.recovery_us_total += l.recovery_us;
  }
  row.json = camp.to_json();
  return row;
}

// --- Part C: confirm watchdog ------------------------------------------------

struct WatchdogResult {
  std::uint64_t auto_reverts = 0;
  std::uint32_t final_version = 0;
  int violations = 0;
};

WatchdogResult run_watchdog() {
  Scheduler sched;
  safety::HealthSupervisor sup(sched, "vehicle");
  Flash flash;
  const FirmwareImage oldf{"ecu-fw", 1, patterned(16 * 1024, 0x21)};
  const FirmwareImage newf{"ecu-fw", 2, patterned(20 * 1024, 0x33)};
  flash.provision(oldf);
  ota::ConfirmWatchdog wd(sched, sup, flash, "flash.confirm",
                          SimTime::from_ms(500));
  flash.stage(newf);
  flash.activate(SimTime::zero(), SimTime::from_s(2));
  // The self-test hangs: commit() never runs. The watchdog must notice the
  // lapsed deadline and auto-revert via boot-time recovery.
  wd.start();
  sched.run_until(SimTime::from_s(10));

  WatchdogResult r;
  r.auto_reverts = wd.auto_reverts();
  const FirmwareImage* a = flash.active();
  r.final_version = a ? a->version : 0;
  if (r.auto_reverts == 0) ++r.violations;
  if (!a || a->version != oldf.version || !(a->code == oldf.code)) {
    ++r.violations;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  bool& smoke = benchutil::smoke;
  if (const int rc = benchutil::parse_args(
          argc, argv, {{"--seed", &seed}, {"--smoke", &smoke}})) {
    return rc;
  }

  std::printf("E18: power-loss-atomic A/B updates\n");
  std::printf("(seed %llu; invariant: any single cut -> bootable valid image, "
              "never torn, never bricked)\n\n",
              static_cast<unsigned long long>(seed));

  int violations = 0;

  // Part A — exhaustive cut sweep over every write op of the install.
  const FirmwareImage oldf{"ecu-fw", 1,
                           patterned(3 * Flash::kPageSize + 512, 0x11)};
  const FirmwareImage newf{"ecu-fw", 2,
                           patterned(5 * Flash::kPageSize + 1000, 0x33)};
  benchutil::Table sweep_table({"cut_op", "phase", "boot_ok", "booted_v",
                                "resume_bytes", "final_v", "recovery_us",
                                "violations"});
  std::vector<SweepRow> sweep;
  for (std::int64_t k = 0;; ++k) {
    SweepRow row = run_cut(k, seed, oldf, newf);
    const bool done = !row.cut;  // this k is past the last write op
    if (done) row.cut_op = -1;
    sweep.push_back(row);
    violations += row.violations;
    sweep_table.add_row(
        {done ? "none" : std::to_string(row.cut_op), row.phase,
         row.cut ? (row.boot_ok ? "yes" : "NO") : "-",
         std::to_string(row.booted_version),
         benchutil::fmt_u(row.resume_saved), std::to_string(row.final_version),
         benchutil::fmt("%.1f", row.recovery_us),
         std::to_string(row.violations)});
    if (done) break;
  }
  std::printf("Part A: exhaustive power-cut sweep (%zu write ops)\n",
              sweep.size() - 1);
  sweep_table.print();
  std::printf("\n");

  // Part B — Poisson power-loss fleet campaigns + bad-image wave abort.
  const std::vector<double> probs =
      smoke ? std::vector<double>{0.03} : std::vector<double>{0.01, 0.03, 0.08};
  std::vector<CampaignRow> campaigns;
  std::uint64_t cseed = seed * 1000;
  for (const double p : probs) {
    campaigns.push_back(
        run_campaign("poisson", p, ++cseed, /*bad_image=*/false));
  }
  campaigns.push_back(
      run_campaign("bad_image", 0.0, ++cseed, /*bad_image=*/true));

  benchutil::Table camp_table({"scenario", "p_cut", "fleet", "waves", "aborted",
                               "updated", "after_ploss", "skipped", "bricked",
                               "power_losses", "resume_bytes",
                               "completion_%"});
  for (const CampaignRow& r : campaigns) {
    violations += static_cast<int>(r.bricked);
    camp_table.add_row({r.scenario, benchutil::fmt("%.2f", r.p),
                        benchutil::fmt_u(r.fleet), benchutil::fmt_u(r.waves),
                        r.aborted ? "yes" : "no", benchutil::fmt_u(r.updated),
                        benchutil::fmt_u(r.after_power_loss),
                        benchutil::fmt_u(r.skipped),
                        benchutil::fmt_u(r.bricked),
                        benchutil::fmt_u(r.power_losses),
                        benchutil::fmt_u(r.resume_saved),
                        benchutil::fmt("%.1f", 100.0 * r.completion)});
  }
  // The bad-image campaign must abort after its first wave; the Poisson
  // campaigns must finish without an abort (power loss is survivable).
  for (const CampaignRow& r : campaigns) {
    if (r.scenario == "bad_image" && (!r.aborted || r.skipped == 0)) {
      ++violations;
    }
  }
  std::printf("Part B: staggered-wave campaigns under power-loss injection\n");
  camp_table.print();
  std::printf("\n");

  // Part C — supervised confirm-or-revert deadline.
  const WatchdogResult wr = run_watchdog();
  violations += wr.violations;
  std::printf("Part C: confirm watchdog: auto_reverts=%llu final_version=%u "
              "violations=%d\n\n",
              static_cast<unsigned long long>(wr.auto_reverts),
              wr.final_version, wr.violations);

  // Deterministic JSON report (`ctest -R determinism` compares two seeded runs).
  std::string json = "{\"experiment\":\"e18_update_atomicity\",\"seed\":" +
                     std::to_string(seed) + ",\"sweep\":[";
  char buf[256];
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"cut_op\":%lld,\"phase\":\"%s\",\"boot_ok\":%s,"
                  "\"booted_version\":%u,\"resume_bytes\":%llu,"
                  "\"final_version\":%u,\"recovery_us\":%.1f,"
                  "\"violations\":%d}",
                  i ? "," : "", static_cast<long long>(r.cut_op),
                  r.phase.c_str(), r.boot_ok ? "true" : "false",
                  r.booted_version,
                  static_cast<unsigned long long>(r.resume_saved),
                  r.final_version, r.recovery_us, r.violations);
    json += buf;
  }
  json += "],\"campaigns\":[";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    if (i) json += ",";
    json += "{\"scenario\":\"" + campaigns[i].scenario + "\",\"p\":" +
            benchutil::fmt("%.3f", campaigns[i].p) +
            ",\"report\":" + campaigns[i].json + "}";
  }
  std::snprintf(buf, sizeof buf,
                "],\"watchdog\":{\"auto_reverts\":%llu,\"final_version\":%u},"
                "\"violations\":%d}",
                static_cast<unsigned long long>(wr.auto_reverts),
                wr.final_version, violations);
  json += buf;
  std::printf("%s\n", json.c_str());

  return benchutil::exit_status(violations);
}
