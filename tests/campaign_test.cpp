// Fleet campaign tests: staggered-wave rollout with abort threshold,
// power-loss resume through the staging journal, the confirm watchdog, and
// the retry policy's backoff clamp / jitter determinism.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ecu/flash.hpp"
#include "ota/campaign.hpp"
#include "safety/supervisor.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"

namespace aseck::ota {
namespace {

using ecu::FirmwareImage;
using ecu::Flash;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using sim::Telemetry;
using util::Bytes;

Bytes patterned(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 31 + salt) & 0xFF);
  }
  return b;
}

/// A fleet harness: two published repos, N provisioned vehicles, a runner.
struct FleetFixture {
  Scheduler sched;
  crypto::Drbg rng{2026u};
  Repository director{rng, "director", SimTime::from_s(500000)};
  Repository images{rng, "image-repo", SimTime::from_s(500000)};
  Bytes fw = patterned(6 * Flash::kPageSize, 0x42);  // v2, 6 full pages
  std::vector<std::unique_ptr<Flash>> flashes;
  std::vector<std::unique_ptr<FullVerificationClient>> clients;

  FleetFixture() {
    director.add_target("vecu-fw", fw, 2, "vecu-hw");
    images.add_target("vecu-fw", fw, 2, "vecu-hw");
    director.publish(SimTime::from_ms(1));
    images.publish(SimTime::from_ms(1));
  }

  void add_vehicles(CampaignRunner& runner, std::size_t n,
                    std::function<bool()> self_test = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      flashes.push_back(std::make_unique<Flash>());
      flashes.back()->provision(
          FirmwareImage{"vecu-fw", 1, patterned(2 * Flash::kPageSize, 0x11)});
      clients.push_back(std::make_unique<FullVerificationClient>(
          "vm" + std::to_string(i), director.trusted_root(),
          images.trusted_root()));
      runner.add_vehicle("vm" + std::to_string(i), *flashes.back(),
                         *clients.back(), self_test);
    }
  }

  CampaignConfig config() {
    CampaignConfig cfg;
    cfg.wave_size = 2;
    cfg.wave_gap = SimTime::from_s(5);
    cfg.vehicle_stagger = SimTime::from_ms(200);
    cfg.wave_abort_ratio = 0.5;
    cfg.retry.chunk_bytes = 8 * 1024;
    cfg.retry.link_bytes_per_sec = 1'000'000;
    return cfg;
  }
};

TEST(Campaign, StaggeredWavesUpdateWholeFleet) {
  FleetFixture f;
  CampaignRunner runner(f.sched, f.director, f.images, "vecu-fw", "vecu-hw",
                        f.config());
  f.add_vehicles(runner, 5);  // wave_size 2 -> 3 waves
  bool done = false;
  runner.start([&] { done = true; });
  f.sched.run_until(SimTime::from_s(300));

  EXPECT_TRUE(done);
  EXPECT_TRUE(runner.finished());
  EXPECT_FALSE(runner.aborted());
  EXPECT_EQ(runner.waves_dispatched(), 3u);
  EXPECT_EQ(runner.updated(), 5u);
  EXPECT_EQ(runner.bricked(), 0u);
  EXPECT_DOUBLE_EQ(runner.completion_rate(), 1.0);
  for (const VehicleLedger& l : runner.ledger()) {
    EXPECT_EQ(l.outcome, VehicleOutcome::kUpdated) << l.id;
    EXPECT_EQ(l.final_version, 2u) << l.id;
    EXPECT_EQ(l.fetch_sessions, 1) << l.id;
  }
  // Vehicles in one wave start staggered, so they finish at distinct times.
  EXPECT_NE(runner.ledger()[0].finished_at.ns, runner.ledger()[1].finished_at.ns);
}

TEST(Campaign, FailedSelfTestsAbortAfterFirstWave) {
  FleetFixture f;
  CampaignRunner runner(f.sched, f.director, f.images, "vecu-fw", "vecu-hw",
                        f.config());
  f.add_vehicles(runner, 5, [] { return false; });  // bad image everywhere
  runner.start();
  f.sched.run_until(SimTime::from_s(300));

  EXPECT_TRUE(runner.finished());
  EXPECT_TRUE(runner.aborted());
  EXPECT_EQ(runner.waves_dispatched(), 1u);
  EXPECT_EQ(runner.count(VehicleOutcome::kRevertedSelfTest), 2u);
  EXPECT_EQ(runner.count(VehicleOutcome::kSkipped), 3u);
  EXPECT_EQ(runner.updated(), 0u);
  // Every vehicle — reverted or skipped — still runs the old image.
  for (const VehicleLedger& l : runner.ledger()) {
    EXPECT_EQ(l.final_version, 1u) << l.id;
  }
}

/// Tears page 3 of a streaming install, reboots, and resumes in a second
/// session; `resume_outage` > 0 takes both repositories down for that long
/// over the second session's first attempt.
void resume_after_power_cut(SimTime resume_outage) {
  FleetFixture f;
  FaultPlan plan(f.sched, 7);
  FaultSpec spec;
  spec.target = "vm.flash";
  spec.kind = FaultKind::kPowerLoss;
  spec.probability = 0.0;
  spec.page_index = 3;  // ops: 0 = staging header, 1..6 = pages; tear page 3
  plan.window(SimTime::zero(), SimTime::from_s(100000), spec);

  Flash flash;
  flash.provision(
      FirmwareImage{"vecu-fw", 1, patterned(2 * Flash::kPageSize, 0x11)});
  flash.set_fault_port(&plan.port("vm.flash"));
  f.director.set_fault_port(&plan.port("ota.director"));
  f.images.set_fault_port(&plan.port("ota.image"));
  FullVerificationClient client("vm0", f.director.trusted_root(),
                                f.images.trusted_root());
  FullVerificationClient::RetryPolicy policy;
  policy.chunk_bytes = Flash::kPageSize;
  policy.link_bytes_per_sec = 1'000'000;

  // First session dies at the injected cut.
  std::optional<FullVerificationClient::RetryOutcome> first;
  f.sched.schedule_at(SimTime::from_ms(10), [&] {
    client.fetch_and_stage_with_retry(
        f.sched, f.director, f.images, "vecu-fw", "vecu-hw", 1, policy, flash,
        [&](const FullVerificationClient::RetryOutcome& ro) { first = ro; });
  });
  f.sched.run_until(SimTime::from_s(10));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->outcome.error, OtaError::kPowerLoss);
  EXPECT_TRUE(flash.lost_power());

  // Reboot: pages 1-2 survived the journal; page 3 is torn and discarded.
  const Flash::BootReport rep = flash.boot(f.sched.now());
  ASSERT_TRUE(rep.bootable);
  EXPECT_TRUE(rep.staging_resumable);
  EXPECT_EQ(rep.resume_watermark, 2 * Flash::kPageSize);

  if (resume_outage > SimTime::zero()) {
    for (const char* repo : {"ota.director", "ota.image"}) {
      FaultSpec outage;
      outage.target = repo;
      outage.kind = FaultKind::kOutage;
      plan.window(f.sched.now() + SimTime::from_ms(5), resume_outage, outage);
    }
  }

  // Second session resumes: exactly the surviving bytes are never refetched.
  std::optional<FullVerificationClient::RetryOutcome> second;
  f.sched.schedule_after(SimTime::from_ms(10), [&] {
    client.fetch_and_stage_with_retry(
        f.sched, f.director, f.images, "vecu-fw", "vecu-hw", 1, policy, flash,
        [&](const FullVerificationClient::RetryOutcome& ro) { second = ro; });
  });
  f.sched.run_until(f.sched.now() + SimTime::from_s(10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->outcome.error, OtaError::kOk);
  EXPECT_EQ(second->attempts, resume_outage > SimTime::zero() ? 2 : 1);
  EXPECT_EQ(second->resumed_from, 2 * Flash::kPageSize);
  EXPECT_EQ(second->resume_bytes_saved, 2 * Flash::kPageSize);

  EXPECT_EQ(install_staged(flash, f.sched.now(), SimTime::from_s(30), {}),
            InstallResult::kCommitted);
  ASSERT_NE(flash.active(), nullptr);
  EXPECT_EQ(flash.active()->version, 2u);
  EXPECT_EQ(flash.active()->code, f.fw);
}

TEST(Campaign, PowerLossDuringFetchResumesFromJournalWatermark) {
  resume_after_power_cut(SimTime::zero());
}

// Regression: the pre-reboot watermark counts as saved even when the
// resuming session's first attempt fails before the journal opens.
TEST(Campaign, ResumeSavingsSurviveOutageOnFirstResumeAttempt) {
  resume_after_power_cut(SimTime::from_ms(50));
}

TEST(Campaign, ConfirmWatchdogAutoRevertsUnconfirmedActivation) {
  Scheduler sched;
  safety::HealthSupervisor sup(sched, "vehicle");
  Flash flash;
  const FirmwareImage oldf{"vecu-fw", 1, patterned(4096, 0x11)};
  flash.provision(oldf);
  ota::ConfirmWatchdog wd(sched, sup, flash, "flash.confirm",
                          SimTime::from_ms(500));
  ASSERT_TRUE(flash.stage(FirmwareImage{"vecu-fw", 2, patterned(8192, 0x22)}));
  ASSERT_TRUE(flash.activate(SimTime::zero(), SimTime::from_s(2)));
  wd.start();  // commit() never happens: the self-test hung
  sched.run_until(SimTime::from_s(10));

  EXPECT_GE(wd.auto_reverts(), 1u);
  ASSERT_NE(flash.active(), nullptr);
  EXPECT_EQ(flash.active()->version, 1u);
  EXPECT_EQ(flash.active()->code, oldf.code);
}

// Satellite: the max_backoff clamp applies to every attempt past the point
// where the exponential schedule crosses it.
TEST(RetryPolicy, MaxBackoffClampBoundsTotalBackoff) {
  FleetFixture f;
  Telemetry t;
  FaultPlan plan(f.sched, 3, t);
  f.director.set_fault_port(&plan.port("ota"));
  f.images.set_fault_port(&plan.port("ota"));
  FaultSpec outage;
  outage.target = "ota";
  outage.kind = FaultKind::kOutage;
  plan.window(SimTime::from_ms(1), SimTime::from_s(100000), outage);

  FullVerificationClient client("primary", f.director.trusted_root(),
                                f.images.trusted_root(), t);
  FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = SimTime::from_s(1);
  policy.multiplier = 10.0;
  policy.max_backoff = SimTime::from_s(2);  // clamps attempts 2..5

  std::optional<FullVerificationClient::RetryOutcome> out;
  f.sched.schedule_at(SimTime::from_ms(10), [&] {
    client.fetch_and_verify_with_retry(
        f.sched, f.director, f.images, "vecu-fw", "vecu-hw", 1, policy,
        [&](const FullVerificationClient::RetryOutcome& ro) { out = ro; });
  });
  f.sched.run_until(SimTime::from_s(1000));

  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->outcome.error, OtaError::kRetriesExhausted);
  EXPECT_EQ(out->attempts, 6);
  // Unclamped: 1 + 10 + 100 + 1000 + 10000 s. Clamped: 1 + 2 + 2 + 2 + 2 s.
  EXPECT_EQ(t.metrics->counter_value("ota.primary.backoffs"), 5u);
  EXPECT_EQ(t.metrics->counter_value("ota.primary.backoff_ns_total"),
            9'000'000'000u);
}

// Satellite: jittered backoff draws from a seeded RNG — the schedule varies
// between backoffs but is bit-identical across runs with the same seed.
std::vector<std::string> jittered_backoff_run(std::uint64_t seed) {
  FleetFixture f;
  Telemetry t;
  FaultPlan plan(f.sched, 3);
  f.director.set_fault_port(&plan.port("ota"));
  f.images.set_fault_port(&plan.port("ota"));
  FaultSpec outage;
  outage.target = "ota";
  outage.kind = FaultKind::kOutage;
  plan.window(SimTime::from_ms(1), SimTime::from_s(100000), outage);

  FullVerificationClient client("primary", f.director.trusted_root(),
                                f.images.trusted_root(), t);
  std::vector<std::string> backoff_ns;
  const sim::TraceId k_backoff = t.bus->intern("backoff");
  t.bus->subscribe([&](const sim::TraceEvent& e) {
    if (e.kind == k_backoff) backoff_ns.push_back(e.detail);
  });

  util::Rng jitter_rng(seed);
  FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = SimTime::from_s(1);
  policy.multiplier = 1.0;  // flat base: any variation IS the jitter
  policy.jitter = 0.3;
  policy.jitter_rng = &jitter_rng;

  f.sched.schedule_at(SimTime::from_ms(10), [&] {
    client.fetch_and_verify_with_retry(
        f.sched, f.director, f.images, "vecu-fw", "vecu-hw", 1, policy,
        [&](const FullVerificationClient::RetryOutcome&) {});
  });
  f.sched.run_until(SimTime::from_s(1000));
  return backoff_ns;
}

TEST(RetryPolicy, JitterSequenceIsBitIdenticalPerSeed) {
  const std::vector<std::string> a = jittered_backoff_run(99);
  const std::vector<std::string> b = jittered_backoff_run(99);
  ASSERT_EQ(a.size(), 7u);  // max_attempts 8 -> 7 backoffs
  EXPECT_EQ(a, b);
  // The jitter actually perturbs the schedule (flat base, varying draws).
  bool varied = false;
  for (std::size_t i = 1; i < a.size(); ++i) varied |= a[i] != a[0];
  EXPECT_TRUE(varied);
  // A different seed produces a different (still deterministic) sequence.
  const std::vector<std::string> c = jittered_backoff_run(100);
  EXPECT_NE(a, c);
}

TEST(Campaign, ConfigPushSurvivesPowerCutAndBoundsRetries) {
  FleetFixture f;
  CampaignRunner runner(f.sched, f.director, f.images, "vecu-fw", "vecu-hw",
                        f.config());
  // Three vehicles with provisioning stores, one legacy vehicle without.
  std::vector<std::unique_ptr<ecu::KvStore>> kvs;
  for (std::size_t i = 0; i < 4; ++i) {
    f.flashes.push_back(std::make_unique<Flash>());
    f.flashes.back()->provision(
        FirmwareImage{"vecu-fw", 1, patterned(Flash::kPageSize, 0x11)});
    f.clients.push_back(std::make_unique<FullVerificationClient>(
        "vm" + std::to_string(i), f.director.trusted_root(),
        f.images.trusted_root()));
    if (i < 3) {
      kvs.push_back(std::make_unique<ecu::KvStore>());
      kvs.back()->mount();
    }
    runner.add_vehicle("vm" + std::to_string(i), *f.flashes.back(),
                       *f.clients.back(), {}, i < 3 ? kvs[i].get() : nullptr);
  }

  // Vehicle 1's commit is cut mid-transaction: it must reboot (remount) and
  // retry; by the kvstore's atomicity contract the cut attempt is invisible.
  FaultPlan plan{f.sched, 1};
  FaultSpec cut;
  cut.target = "kv1";
  cut.kind = FaultKind::kPowerLoss;
  cut.probability = 0.0;
  cut.page_index = 1;
  plan.window(SimTime::zero(), SimTime::from_s(3600), cut);
  f.sched.run_until(SimTime::from_ms(1));
  kvs[1]->set_fault_port(&plan.port("kv1"));

  ecu::KvTransaction txn;
  txn.put("boot.anchor", Bytes(65, 0x04));
  txn.put("campaign.wave", Bytes{2});
  const auto rep = runner.push_config(txn);
  EXPECT_EQ(rep.vehicles, 3u);  // the kv-less vehicle is not counted
  EXPECT_EQ(rep.committed, 3u);
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.failed, 0u);
  for (const auto& kv : kvs) {
    ASSERT_NE(kv->get("boot.anchor"), nullptr);
    EXPECT_EQ(*kv->get("campaign.wave"), Bytes{2});
  }

  // A store cut on EVERY write can never commit: the retry loop is bounded
  // and reports the failure instead of spinning.
  FaultSpec storm = cut;
  storm.target = "kv0";
  storm.probability = 1.0;
  storm.page_index = -1;
  plan.window(SimTime::from_ms(2), SimTime::from_s(3600), storm);
  f.sched.run_until(SimTime::from_ms(3));
  kvs[0]->set_fault_port(&plan.port("kv0"));
  const auto rep2 = runner.push_config(txn, /*max_reboots=*/2);
  EXPECT_EQ(rep2.committed, 2u);
  EXPECT_EQ(rep2.failed, 1u);
}

}  // namespace
}  // namespace aseck::ota
