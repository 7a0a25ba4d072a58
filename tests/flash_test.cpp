// Journaled flash: streaming installs, power-loss atomicity, boot-time
// recovery, watermark resume semantics, and the anti-rollback edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "crypto/sha256.hpp"
#include "ecu/flash.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace aseck::ecu {
namespace {

using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using util::Bytes;
using util::SimTime;

Bytes patterned(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 37 + salt) & 0xFF);
  }
  return b;
}

FirmwareImage image(std::uint32_t version, std::size_t bytes,
                    std::uint8_t salt) {
  return FirmwareImage{"fw", version, patterned(bytes, salt)};
}

Flash::StageRequest request_for(const FirmwareImage& img) {
  Flash::StageRequest req;
  req.name = img.name;
  req.version = img.version;
  req.total_bytes = img.code.size();
  req.sha256 = crypto::sha256_bytes(img.code);
  return req;
}

/// Arms a single kPowerLoss window cutting at exactly write-op `k`.
struct CutRig {
  Scheduler sched;
  FaultPlan plan{sched, 1};
  sim::FaultPort* arm(std::int64_t k) {
    FaultSpec spec;
    spec.target = "flash";
    spec.kind = FaultKind::kPowerLoss;
    spec.probability = 0.0;
    spec.page_index = k;
    plan.window(SimTime::zero(), SimTime::from_s(3600), spec);
    sched.run_until(SimTime::from_ms(1));
    return &plan.port("flash");
  }
};

TEST(FlashJournal, StreamingInstallTracksWatermarkPerPage) {
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  const FirmwareImage next = image(2, 2 * Flash::kPageSize + 100, 0x02);
  ASSERT_TRUE(flash.stage_begin(request_for(next)));
  EXPECT_EQ(flash.staging_watermark(), 0u);

  // Half a page: buffered volatile, nothing durable yet.
  util::BytesView view(next.code);
  ASSERT_EQ(flash.stage_write(view.subspan(0, Flash::kPageSize / 2)),
            FlashWrite::kOk);
  EXPECT_EQ(flash.staging_watermark(), 0u);
  // Completing the page programs it.
  ASSERT_EQ(flash.stage_write(view.subspan(Flash::kPageSize / 2,
                                           Flash::kPageSize / 2)),
            FlashWrite::kOk);
  EXPECT_EQ(flash.staging_watermark(), Flash::kPageSize);
  // The rest (one full page + a 100-byte tail page).
  ASSERT_EQ(flash.stage_write(view.subspan(Flash::kPageSize)), FlashWrite::kOk);
  EXPECT_EQ(flash.staging_watermark(), next.code.size());

  ASSERT_EQ(flash.stage_finish(), FlashWrite::kOk);
  ASSERT_NE(flash.staged(), nullptr);
  EXPECT_EQ(flash.staged()->code, next.code);
  EXPECT_TRUE(flash.activate());
  EXPECT_EQ(flash.active()->version, 2u);
}

TEST(FlashJournal, OverflowingDeclaredLengthIsRejected) {
  Flash flash;
  const FirmwareImage next = image(2, 100, 0x02);
  ASSERT_TRUE(flash.stage_begin(request_for(next)));
  const Bytes too_much(101, 0xEE);
  EXPECT_EQ(flash.stage_write(too_much), FlashWrite::kRejected);
}

TEST(FlashJournal, FinishRejectsWrongBytesAndErasesJournal) {
  Flash flash;
  const FirmwareImage next = image(2, 600, 0x02);
  ASSERT_TRUE(flash.stage_begin(request_for(next)));
  ASSERT_EQ(flash.stage_write(patterned(600, 0x77)), FlashWrite::kOk);
  EXPECT_EQ(flash.stage_finish(), FlashWrite::kRejected);
  EXPECT_EQ(flash.staged(), nullptr);
  EXPECT_EQ(flash.staging_watermark(), 0u);
}

// Satellite: re-staging the same image digest resumes at the watermark;
// a different digest resets the journal (no stale-watermark resume).
TEST(FlashJournal, RestageSameDigestResumesAtWatermark) {
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  const FirmwareImage next = image(2, 3 * Flash::kPageSize, 0x02);
  ASSERT_TRUE(flash.stage_begin(request_for(next)));
  ASSERT_EQ(flash.stage_write(
                util::BytesView(next.code).subspan(0, 2 * Flash::kPageSize)),
            FlashWrite::kOk);
  EXPECT_EQ(flash.staging_watermark(), 2 * Flash::kPageSize);

  // Re-open with the same digest: the two durable pages survive.
  ASSERT_TRUE(flash.stage_begin(request_for(next)));
  EXPECT_EQ(flash.staging_watermark(), 2 * Flash::kPageSize);
  ASSERT_EQ(flash.stage_write(
                util::BytesView(next.code).subspan(2 * Flash::kPageSize)),
            FlashWrite::kOk);
  EXPECT_EQ(flash.stage_finish(), FlashWrite::kOk);
  EXPECT_EQ(flash.staged()->code, next.code);
}

TEST(FlashJournal, RestageDifferentDigestResetsJournal) {
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  const FirmwareImage a = image(2, 3 * Flash::kPageSize, 0x02);
  ASSERT_TRUE(flash.stage_begin(request_for(a)));
  ASSERT_EQ(flash.stage_write(
                util::BytesView(a.code).subspan(0, 2 * Flash::kPageSize)),
            FlashWrite::kOk);
  EXPECT_EQ(flash.staging_watermark(), 2 * Flash::kPageSize);

  // Same version/name/length, different bytes: the old watermark must NOT
  // leak into this install.
  const FirmwareImage b = image(2, 3 * Flash::kPageSize, 0x99);
  ASSERT_TRUE(flash.stage_begin(request_for(b)));
  EXPECT_EQ(flash.staging_watermark(), 0u);
  ASSERT_EQ(flash.stage_write(b.code), FlashWrite::kOk);
  ASSERT_EQ(flash.stage_finish(), FlashWrite::kOk);
  EXPECT_EQ(flash.staged()->code, b.code);
}

TEST(FlashJournal, LegacyStageOverwritesPreviouslyStagedImage) {
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  ASSERT_TRUE(flash.stage(image(2, 5000, 0x02)));
  ASSERT_NE(flash.staged(), nullptr);
  const FirmwareImage replacement = image(3, 7000, 0x03);
  ASSERT_TRUE(flash.stage(replacement));
  ASSERT_NE(flash.staged(), nullptr);
  EXPECT_EQ(flash.staged()->version, 3u);
  EXPECT_EQ(flash.staged()->code, replacement.code);
}

// Satellite: revert() must fail once commit() raised the rollback floor
// above the previous bank's version.
TEST(FlashJournal, RevertFailsAfterCommitRaisesFloorAbovePreviousBank) {
  Flash flash;
  flash.provision(image(5, 1000, 0x05));
  ASSERT_TRUE(flash.stage(image(6, 1200, 0x06)));
  ASSERT_TRUE(flash.activate());
  flash.commit();
  EXPECT_EQ(flash.rollback_floor(), 6u);
  // The previous bank holds v5 < floor 6: reverting is a permanent failure.
  EXPECT_FALSE(flash.revert());
  EXPECT_EQ(flash.active()->version, 6u);
}

TEST(FlashPowerLoss, CutMidPageLeavesTornPageDiscardedAtBoot) {
  CutRig rig;
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  // Ops: 0 = staging header, 1..N = pages. Cut inside page 2 (op index 2).
  flash.set_fault_port(rig.arm(2));
  const FirmwareImage next = image(2, 4 * Flash::kPageSize, 0x02);
  EXPECT_FALSE(flash.stage(next));
  EXPECT_TRUE(flash.lost_power());
  // Down until boot: every write is refused.
  EXPECT_FALSE(flash.stage(next));

  const Flash::BootReport rep = flash.boot();
  EXPECT_TRUE(rep.bootable);
  EXPECT_EQ(rep.active_version, 1u);
  EXPECT_EQ(rep.torn_pages_discarded, 1u);
  EXPECT_TRUE(rep.staging_resumable);
  EXPECT_EQ(rep.resume_watermark, Flash::kPageSize);  // page 1 survived

  // Resume completes with only the missing pages rewritten.
  ASSERT_TRUE(flash.stage(next));
  ASSERT_TRUE(flash.activate());
  flash.commit();
  EXPECT_EQ(flash.active()->code, next.code);
}

TEST(FlashPowerLoss, CutAtActivationMarkerKeepsStagedState) {
  CutRig rig;
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  const FirmwareImage next = image(2, Flash::kPageSize, 0x02);
  ASSERT_TRUE(flash.stage(next));
  // Attach the port after staging: the very next write op (index 0) is the
  // ACTIVE header itself.
  flash.set_fault_port(rig.arm(0));
  EXPECT_FALSE(flash.activate());
  EXPECT_TRUE(flash.lost_power());

  const Flash::BootReport rep = flash.boot();
  EXPECT_TRUE(rep.bootable);
  EXPECT_EQ(rep.active_version, 1u);  // old image still boots
  EXPECT_EQ(rep.torn_headers_discarded, 1u);
  // The STAGED image survived the torn header copy intact.
  ASSERT_NE(flash.staged(), nullptr);
  EXPECT_EQ(flash.staged()->version, 2u);
  ASSERT_TRUE(flash.activate());
  flash.commit();
  EXPECT_EQ(flash.active()->version, 2u);
}

TEST(FlashPowerLoss, CutAtCommitMarkerRebootBeforeDeadlineStaysActive) {
  CutRig rig;
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  const FirmwareImage next = image(2, Flash::kPageSize, 0x02);
  ASSERT_TRUE(flash.stage(next));
  const SimTime t0 = SimTime::from_s(1);
  ASSERT_TRUE(flash.activate(t0, SimTime::from_s(30)));
  flash.set_fault_port(rig.arm(0));  // next write op = commit marker
  flash.commit();
  EXPECT_TRUE(flash.lost_power());
  EXPECT_EQ(flash.rollback_floor(), 1u);  // fuse write never happened

  const Flash::BootReport rep = flash.boot(t0 + SimTime::from_s(5));
  EXPECT_TRUE(rep.bootable);
  EXPECT_FALSE(rep.auto_reverted);
  EXPECT_EQ(rep.active_version, 2u);  // still inside the confirm window
  EXPECT_TRUE(flash.confirm_pending());
  flash.commit();
  EXPECT_EQ(flash.rollback_floor(), 2u);
}

TEST(FlashPowerLoss, LapsedConfirmDeadlineAutoRevertsAtBoot) {
  Flash flash;
  const FirmwareImage oldf = image(1, 1000, 0x01);
  flash.provision(oldf);
  ASSERT_TRUE(flash.stage(image(2, Flash::kPageSize, 0x02)));
  const SimTime t0 = SimTime::from_s(1);
  ASSERT_TRUE(flash.activate(t0, SimTime::from_s(30)));
  // Never confirmed; reboot lands after the deadline.
  const Flash::BootReport rep = flash.boot(t0 + SimTime::from_s(31));
  EXPECT_TRUE(rep.bootable);
  EXPECT_TRUE(rep.auto_reverted);
  EXPECT_EQ(rep.active_version, 1u);
  ASSERT_NE(flash.active(), nullptr);
  EXPECT_EQ(flash.active()->code, oldf.code);
}

TEST(FlashPowerLoss, BootRepairsRollbackFloorFromConfirmedSlot) {
  Flash flash;
  flash.provision(image(3, 1000, 0x03));
  ASSERT_TRUE(flash.stage(image(4, 2000, 0x04)));
  ASSERT_TRUE(flash.activate());
  flash.commit();
  EXPECT_EQ(flash.rollback_floor(), 4u);
  // boot() must keep (or re-derive) the floor from the CONFIRMED slot.
  const Flash::BootReport rep = flash.boot();
  EXPECT_TRUE(rep.bootable);
  EXPECT_EQ(rep.active_version, 4u);
  EXPECT_EQ(flash.rollback_floor(), 4u);
}

TEST(FlashPowerLoss, ExhaustiveCutSweepNeverBricksAndAlwaysConverges) {
  const FirmwareImage oldf = image(1, 2 * Flash::kPageSize + 11, 0x01);
  const FirmwareImage next = image(2, 3 * Flash::kPageSize + 500, 0x02);
  for (std::int64_t k = 0; k < 32; ++k) {
    CutRig rig;
    Flash flash;
    flash.provision(oldf);
    flash.set_fault_port(rig.arm(k));
    const SimTime t0 = SimTime::from_s(1);
    bool cut = false;
    if (!flash.stage(next)) {
      ASSERT_TRUE(flash.lost_power()) << "k=" << k;
      cut = true;
    } else if (!flash.activate(t0, SimTime::from_s(30))) {
      ASSERT_TRUE(flash.lost_power()) << "k=" << k;
      cut = true;
    } else {
      flash.commit();
      cut = flash.lost_power();
    }
    if (cut) {
      const Flash::BootReport rep = flash.boot(t0 + SimTime::from_s(2));
      ASSERT_TRUE(rep.bootable) << "bricked at k=" << k;
      const FirmwareImage* a = flash.active();
      ASSERT_NE(a, nullptr) << "k=" << k;
      ASSERT_TRUE(a->code == oldf.code || a->code == next.code)
          << "torn image booted at k=" << k;
      if (flash.confirm_pending()) {
        flash.commit();
      } else if (a->version != next.version) {
        ASSERT_TRUE(flash.stage(next)) << "k=" << k;
        ASSERT_TRUE(flash.activate(t0 + SimTime::from_s(2))) << "k=" << k;
        flash.commit();
      }
    }
    ASSERT_NE(flash.active(), nullptr) << "k=" << k;
    EXPECT_EQ(flash.active()->code, next.code) << "k=" << k;
    EXPECT_EQ(flash.rollback_floor(), 2u) << "k=" << k;
  }
}

TEST(FlashPowerLoss, PoissonPerWriteCutsAreSurvivable) {
  // Bernoulli(p) per write op, many trials: every trial must end bootable.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scheduler sched;
    FaultPlan plan(sched, seed);
    FaultSpec spec;
    spec.target = "flash";
    spec.kind = FaultKind::kPowerLoss;
    spec.probability = 0.05;
    plan.window(SimTime::zero(), SimTime::from_s(3600), spec);
    sched.run_until(SimTime::from_ms(1));

    const FirmwareImage oldf = image(1, Flash::kPageSize, 0x01);
    const FirmwareImage next = image(2, 6 * Flash::kPageSize, 0x02);
    Flash flash;
    flash.provision(oldf);
    flash.set_fault_port(&plan.port("flash"));
    const SimTime t0 = SimTime::from_s(1);
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (flash.active() && flash.active()->version == 2 &&
          !flash.confirm_pending()) {
        break;
      }
      if (flash.lost_power()) {
        const Flash::BootReport rep = flash.boot(t0);
        ASSERT_TRUE(rep.bootable) << "seed=" << seed;
        const FirmwareImage* a = flash.active();
        ASSERT_TRUE(a->code == oldf.code || a->code == next.code)
            << "seed=" << seed;
        continue;
      }
      if (flash.confirm_pending()) {
        flash.commit();
      } else if (flash.staged()) {
        flash.activate(t0, SimTime::from_s(30));
      } else {
        flash.stage(next);
      }
    }
    ASSERT_NE(flash.active(), nullptr) << "seed=" << seed;
  }
}

// Seeded streaming installs in chunks that are not page-aligned, with up to
// three power cuts per trial at random write ops, each followed by boot()
// and a resume. Besides old-or-new at every step, this pins what lets the
// seal skip the page-CRC scan: a journal sealed with power on survives the
// next boot() as staged(), never discarded.
TEST(FlashPowerLoss, RandomStreamingCutsResumeAndSealedJournalSurvivesBoot) {
  const FirmwareImage oldf = image(1, 2 * Flash::kPageSize + 11, 0x01);
  const FirmwareImage next = image(2, 5 * Flash::kPageSize + 777, 0x02);
  const Flash::StageRequest req = request_for(next);
  const SimTime t0 = SimTime::from_s(1);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    Flash flash;
    flash.provision(oldf);
    // Write ops of one install: staging header, 6 pages, seal, activate,
    // commit. Cutting within the next 12 ops hits all of them.
    const auto next_cut = [&] {
      return static_cast<std::int64_t>(rng.uniform(12));
    };
    auto rig = std::make_unique<CutRig>();
    flash.set_fault_port(rig->arm(next_cut()));
    int cuts = 0;
    bool sealed = false;  // stage_finish returned kOk, not yet activated
    const auto watermark_ok = [&] {
      const std::uint64_t wm = flash.staging_watermark();
      return wm % Flash::kPageSize == 0 || wm == next.code.size();
    };
    for (int step = 0; step < 200; ++step) {
      const FirmwareImage* a = flash.active();
      ASSERT_NE(a, nullptr) << "seed=" << seed;
      ASSERT_TRUE(a->code == oldf.code || a->code == next.code)
          << "seed=" << seed;
      ASSERT_TRUE(watermark_ok()) << "seed=" << seed;
      if (a->version == 2 && !flash.confirm_pending()) break;

      // A cut forces a boot; a sealed journal sometimes gets a clean reboot.
      if (flash.lost_power() || (sealed && rng.chance(0.5))) {
        const bool was_cut = flash.lost_power();
        const Flash::BootReport rep = flash.boot(t0);
        ASSERT_TRUE(rep.bootable) << "seed=" << seed;
        EXPECT_FALSE(rep.staging_discarded) << "seed=" << seed;
        if (sealed) {
          ASSERT_NE(flash.staged(), nullptr) << "seed=" << seed;
          EXPECT_EQ(flash.staged()->code, next.code) << "seed=" << seed;
        }
        if (was_cut) {
          auto fresh = std::make_unique<CutRig>();
          flash.set_fault_port(++cuts < 3 ? fresh->arm(next_cut()) : nullptr);
          rig = std::move(fresh);
        }
        continue;
      }
      if (flash.confirm_pending()) {
        flash.commit();
      } else if (flash.staged()) {
        if (flash.activate(t0, SimTime::from_s(30))) sealed = false;
      } else if (flash.stage_begin(req)) {
        ASSERT_TRUE(watermark_ok()) << "seed=" << seed;
        FlashWrite w = FlashWrite::kOk;
        for (std::uint64_t off = flash.staging_watermark();
             w == FlashWrite::kOk && off < next.code.size();) {
          std::size_t n = 1 + rng.uniform(2 * Flash::kPageSize - 1);
          if (n % Flash::kPageSize == 0) --n;
          n = std::min<std::size_t>(n, next.code.size() - off);
          w = flash.stage_write(util::BytesView(next.code).subspan(off, n));
          ASSERT_NE(w, FlashWrite::kRejected) << "seed=" << seed;
          ASSERT_TRUE(watermark_ok()) << "seed=" << seed;
          off += n;
        }
        if (w == FlashWrite::kOk) {
          w = flash.stage_finish();
          ASSERT_NE(w, FlashWrite::kRejected) << "seed=" << seed;
          sealed = w == FlashWrite::kOk;
        }
      }
    }
    ASSERT_NE(flash.active(), nullptr) << "seed=" << seed;
    EXPECT_EQ(flash.active()->code, next.code) << "seed=" << seed;
    EXPECT_FALSE(flash.confirm_pending()) << "seed=" << seed;
    EXPECT_EQ(flash.rollback_floor(), 2u) << "seed=" << seed;
  }
}

TEST(FlashPowerLoss, TornHeaderCopiesAreChargedInScanLatency) {
  // Pin the closed form: four intact header copies plus one read per torn
  // spare copy examined and discarded, then the per-page CRC scan.
  EXPECT_EQ(Flash::scan_latency_us(10), 5.0 * 4 + 8.0 * 10);
  EXPECT_EQ(Flash::scan_latency_us(10, 1), 5.0 * 5 + 8.0 * 10);
  EXPECT_EQ(Flash::scan_latency_us(0, 2), 5.0 * 6);

  // End to end: a cut at the activation header leaves one torn spare, so
  // that recovery boot must report exactly one header-read more than the
  // clean re-boot right after it (which has no torn copy left to examine).
  CutRig rig;
  Flash flash;
  flash.provision(image(1, 1000, 0x01));
  ASSERT_TRUE(flash.stage(image(2, Flash::kPageSize, 0x02)));
  flash.set_fault_port(rig.arm(0));
  ASSERT_FALSE(flash.activate());

  const Flash::BootReport torn = flash.boot();
  EXPECT_EQ(torn.torn_headers_discarded, 1u);
  const Flash::BootReport clean = flash.boot();
  EXPECT_EQ(clean.torn_headers_discarded, 0u);
  EXPECT_EQ(torn.scan_us, clean.scan_us + Flash::kHeaderReadUs);
}

}  // namespace
}  // namespace aseck::ecu
