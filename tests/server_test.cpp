// Tests for the campaign-storm-hardened serving front (ota::RepositoryServer):
// admission control and slotted retry-after, metadata snapshot coalescing,
// the chunk cache, delta encoding, the normal -> shed_delta -> shed_refresh
// -> shed_admission degradation ladder under kRepoSlowdown, client-side
// kRetryAfter honoring (the thundering-herd fix), wave-level campaign
// backpressure, the session-ticket frontend, and ota.repo.* metric survival
// across MetricsRegistry::merge_from.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attacks/corpus.hpp"
#include "cloud/frontend.hpp"
#include "ecu/flash.hpp"
#include "ota/campaign.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "ota/server.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"

namespace aseck::ota {
namespace {

using ecu::FirmwareImage;
using ecu::Flash;
using sim::FaultKind;
using sim::FaultPlan;
using sim::Scheduler;
using sim::Telemetry;
using util::Bytes;
using util::SimTime;

Bytes patterned(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 31 + salt) & 0xFF);
  }
  return b;
}

/// Two published repos + a serving front wired to a fault plan.
struct ServerRig {
  Scheduler sched;
  Telemetry t;
  crypto::Drbg rng{777u};
  Repository director{rng, "director", SimTime::from_s(500000)};
  Repository images{rng, "image-repo", SimTime::from_s(500000)};
  Bytes fw = patterned(64 * 1024, 0xF2);
  FaultPlan plan{sched, 21, t};
  std::unique_ptr<RepositoryServer> server;

  explicit ServerRig(ServerConfig cfg = {}) {
    director.add_target("brake-fw", fw, 2, "brake-hw");
    images.add_target("brake-fw", fw, 2, "brake-hw");
    director.publish(SimTime::from_ms(1));
    images.publish(SimTime::from_ms(1));
    server = std::make_unique<RepositoryServer>(director, images, cfg, t);
    server->set_fault_port(&plan.port("ota.server"));
  }

  FullVerificationClient make_client(const std::string& name) {
    FullVerificationClient c(name, director.trusted_root(),
                             images.trusted_root(), t);
    return c;
  }
};

// ---------------------------------------------------------------------------
// Satellite: Repository copy-on-write snapshot

TEST(RepositorySnapshot, SharedUntilRepublish) {
  crypto::Drbg rng(1u);
  Repository repo(rng, "director", SimTime::from_s(3600));
  const std::uint64_t gen = repo.generation();
  auto a = repo.snapshot();
  auto b = repo.snapshot();
  // One copy per generation: every fetch shares the same immutable bundle.
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(repo.generation(), gen);

  repo.publish(SimTime::from_s(1));
  EXPECT_GT(repo.generation(), gen);
  auto c = repo.snapshot();
  EXPECT_NE(a.get(), c.get());
  // The old snapshot is still alive and still carries the old version.
  EXPECT_LT(a->timestamp.body.version, c->timestamp.body.version);
}

TEST(RepositorySnapshot, MutableBundleInvalidates) {
  crypto::Drbg rng(2u);
  Repository repo(rng, "director", SimTime::from_s(3600));
  auto a = repo.snapshot();
  (void)repo.mutable_bundle();  // attack hook: must assume mutation
  EXPECT_NE(a.get(), repo.snapshot().get());
}

// ---------------------------------------------------------------------------
// Admission control

TEST(RepositoryServer, TokenBucketShedsWithSlottedRetryAfter) {
  ServerConfig cfg;
  cfg.bucket_burst = 2.0;
  cfg.campaign_rps = 1.0;
  ServerRig rig(cfg);
  const SimTime t0 = SimTime::from_ms(10);
  const MetadataResponse r1 =
      rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  const MetadataResponse r2 =
      rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  const MetadataResponse r3 =
      rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  const MetadataResponse r4 =
      rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  EXPECT_EQ(r1.status, ServeStatus::kOk);
  EXPECT_EQ(r2.status, ServeStatus::kOk);
  EXPECT_EQ(r3.status, ServeStatus::kRetryAfter);
  EXPECT_EQ(r4.status, ServeStatus::kRetryAfter);
  EXPECT_GT(r3.retry_after, SimTime::zero());
  // Successive sheds get successive future slots — the herd de-synchronizer.
  EXPECT_GT(r4.retry_after, r3.retry_after);
  EXPECT_EQ(rig.server->shed(), 2u);
  EXPECT_EQ(rig.server->requests(), 4u);
}

TEST(RepositoryServer, QueueDelayBoundSheds) {
  ServerConfig cfg;
  cfg.metadata_service = SimTime::from_ms(10);
  cfg.max_queue_delay = SimTime::from_ms(15);
  ServerRig rig(cfg);
  const SimTime t0 = SimTime::from_ms(10);
  // Each admitted request extends the virtual queue by 10ms; the third would
  // wait 20ms > 15ms bound.
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kCampaign, t0).status,
            ServeStatus::kOk);
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kCampaign, t0).status,
            ServeStatus::kOk);
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kCampaign, t0).status,
            ServeStatus::kRetryAfter);
  EXPECT_GT(rig.server->max_queue_delay_seen(), SimTime::zero());
}

TEST(RepositoryServer, BackgroundQueueBoundTighterThanCampaign) {
  ServerConfig cfg;
  cfg.metadata_service = SimTime::from_ms(10);
  cfg.max_queue_delay = SimTime::from_ms(40);
  ServerRig rig(cfg);
  const SimTime t0 = SimTime::from_ms(10);
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kCampaign, t0).status,
            ServeStatus::kOk);
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kCampaign, t0).status,
            ServeStatus::kOk);
  // 20ms of queue ahead: background (bound 10ms) is shed, campaign
  // (bound 40ms) still gets in — safety-critical traffic preempts polls.
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kBackground, t0).status,
            ServeStatus::kRetryAfter);
  EXPECT_EQ(rig.server->fetch_metadata(ServeClass::kCampaign, t0).status,
            ServeStatus::kOk);
  EXPECT_EQ(rig.server->shed_background(), 1u);
}

TEST(RepositoryServer, AdmissionDisabledNeverSheds) {
  ServerConfig cfg;
  cfg.admission_enabled = false;
  cfg.metadata_service = SimTime::from_ms(10);
  cfg.max_queue_delay = SimTime::from_ms(1);
  cfg.bucket_burst = 1.0;
  ServerRig rig(cfg);
  const SimTime t0 = SimTime::from_ms(10);
  SimTime last = SimTime::zero();
  for (int i = 0; i < 20; ++i) {
    const MetadataResponse r =
        rig.server->fetch_metadata(ServeClass::kCampaign, t0);
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_GT(r.latency, last);  // unbounded queue just keeps growing
    last = r.latency;
  }
  EXPECT_EQ(rig.server->shed(), 0u);
}

TEST(RepositoryServer, OutageAnswersRetryAfterOnlyWithAdmission) {
  for (const bool admission : {true, false}) {
    ServerConfig cfg;
    cfg.admission_enabled = admission;
    ServerRig rig(cfg);
    rig.plan.window(SimTime::from_ms(5), SimTime::from_ms(100),
                    {"ota.server", FaultKind::kOutage});
    rig.sched.run_until(SimTime::from_ms(10));
    const MetadataResponse r =
        rig.server->fetch_metadata(ServeClass::kCampaign, SimTime::from_ms(10));
    if (admission) {
      // The front is overloaded/dark but still directs the herd.
      EXPECT_EQ(r.status, ServeStatus::kRetryAfter);
      EXPECT_GT(r.retry_after, SimTime::zero());
    } else {
      EXPECT_EQ(r.status, ServeStatus::kUnavailable);
    }
  }
}

// ---------------------------------------------------------------------------
// Coalescing + chunk cache + delta

TEST(RepositoryServer, MetadataCoalescedPerGeneration) {
  ServerRig rig;
  const SimTime t0 = SimTime::from_ms(10);
  const MetadataResponse r1 =
      rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  const MetadataResponse r2 =
      rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  ASSERT_EQ(r1.status, ServeStatus::kOk);
  ASSERT_EQ(r2.status, ServeStatus::kOk);
  EXPECT_FALSE(r1.coalesced);
  EXPECT_TRUE(r2.coalesced);
  // Identical shared_ptr, not an equal copy: one bundle serves the wave.
  EXPECT_EQ(r1.snapshot.director.get(), r2.snapshot.director.get());
  EXPECT_EQ(r1.snapshot.generation, r2.snapshot.generation);

  rig.director.publish(SimTime::from_ms(20));
  const MetadataResponse r3 =
      rig.server->fetch_metadata(ServeClass::kCampaign, SimTime::from_ms(30));
  ASSERT_EQ(r3.status, ServeStatus::kOk);
  EXPECT_FALSE(r3.coalesced);
  EXPECT_GT(r3.snapshot.generation, r2.snapshot.generation);
  EXPECT_NE(r3.snapshot.director.get(), r2.snapshot.director.get());
  EXPECT_EQ(rig.server->coalesced(), 1u);
  EXPECT_EQ(rig.server->snapshot_refreshes(), 2u);
}

TEST(RepositoryServer, ChunkCacheHitsRepeatedRanges) {
  ServerRig rig;
  const SimTime t0 = SimTime::from_ms(10);
  const ChunkResponse miss =
      rig.server->fetch_chunk(ServeClass::kCampaign, "brake-fw", 0, 8192, t0);
  // Later instant so the virtual queue is drained: the comparison below is
  // pure service time, not queueing.
  const ChunkResponse hit = rig.server->fetch_chunk(
      ServeClass::kCampaign, "brake-fw", 0, 8192, SimTime::from_ms(11));
  ASSERT_EQ(miss.status, ServeStatus::kOk);
  ASSERT_EQ(hit.status, ServeStatus::kOk);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.chunk, miss.chunk);
  EXPECT_LT(hit.latency, miss.latency);  // RAM serve is cheaper
  EXPECT_DOUBLE_EQ(rig.server->cache_hit_rate(), 0.5);

  // Republishing the image bumps the generation: the cache can never serve
  // stale bytes.
  rig.images.publish(SimTime::from_ms(20));
  const ChunkResponse after = rig.server->fetch_chunk(
      ServeClass::kCampaign, "brake-fw", 0, 8192, SimTime::from_ms(30));
  ASSERT_EQ(after.status, ServeStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
}

TEST(RepositoryServer, DeltaEncodingSavesWireBytes) {
  ServerRig rig;
  Bytes base = rig.fw;
  for (std::size_t i = 100; i < 110; ++i) base[i] ^= 0xFF;  // 10 bytes differ
  rig.server->register_delta_base("brake-fw", base);
  const ChunkResponse r = rig.server->fetch_chunk(
      ServeClass::kCampaign, "brake-fw", 0, 8192, SimTime::from_ms(10));
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_TRUE(r.delta);
  EXPECT_EQ(r.wire_bytes, 10u + 16u);  // differing bytes + frame header
  EXPECT_EQ(r.chunk.size(), 8192u);    // payload is still the full range
  EXPECT_EQ(rig.server->delta_bytes_saved(), 8192u - 26u);
  EXPECT_EQ(rig.server->bytes_sent(), 26u);
}

TEST(RepositoryServer, UnknownImageIsUnavailable) {
  ServerRig rig;
  const ChunkResponse r = rig.server->fetch_chunk(
      ServeClass::kCampaign, "no-such-fw", 0, 8192, SimTime::from_ms(10));
  EXPECT_EQ(r.status, ServeStatus::kUnavailable);
}

// ---------------------------------------------------------------------------
// Degradation ladder under kRepoSlowdown

ServerConfig ladder_config() {
  ServerConfig cfg;
  cfg.metadata_service = SimTime::from_ms(1);
  cfg.max_queue_delay = SimTime::from_ms(2);
  cfg.tier_window = SimTime::from_ms(50);
  cfg.campaign_rps = 100000.0;
  cfg.background_rps = 100000.0;
  cfg.bucket_burst = 100000.0;
  return cfg;
}

TEST(RepositoryServer, SlowdownWalksLadderAndRecovers) {
  ServerRig rig(ladder_config());
  sim::FaultSpec slow{"ota.server", FaultKind::kRepoSlowdown};
  slow.delay = SimTime::from_ms(20);
  rig.plan.window(SimTime::from_ms(1), SimTime::from_ms(400), slow);

  bool background_shed_at_refresh_tier = false;
  for (std::uint64_t ms = 2; ms <= 400; ms += 2) {
    const SimTime t = SimTime::from_ms(ms);
    rig.sched.run_until(t);
    (void)rig.server->fetch_metadata(ServeClass::kCampaign, t);
    if (!background_shed_at_refresh_tier &&
        rig.server->tier() >= ServerTier::kShedRefresh) {
      // At shed_refresh+ the background class is rejected outright while
      // campaign traffic still competes for the (tightened) queue.
      const MetadataResponse bg =
          rig.server->fetch_metadata(ServeClass::kBackground, t);
      EXPECT_EQ(bg.status, ServeStatus::kRetryAfter);
      background_shed_at_refresh_tier = true;
    }
  }
  EXPECT_TRUE(background_shed_at_refresh_tier);
  EXPECT_EQ(rig.server->peak_tier(), ServerTier::kShedAdmission);
  EXPECT_GE(rig.server->degraded_transitions(), 3u);

  // Slowdown window over: idle observation windows walk the ladder back to
  // normal — each transition mirrored on the trace bus.
  rig.sched.run_until(SimTime::from_s(1));
  for (std::uint64_t ms = 1000; ms <= 1500; ms += 10) {
    rig.server->observe(SimTime::from_ms(ms));
  }
  EXPECT_EQ(rig.server->tier(), ServerTier::kNormal);
  ASSERT_FALSE(rig.server->transitions().empty());
  EXPECT_EQ(rig.server->transitions().back().to, ServerTier::kNormal);
  EXPECT_GT(rig.t.bus->count("ota.repo", "tier_up"), 0u);
  EXPECT_GT(rig.t.bus->count("ota.repo", "tier_down"), 0u);
}

TEST(RepositoryServer, ShedDeltaTierDisablesDeltaEncoding) {
  ServerRig rig(ladder_config());
  Bytes base = rig.fw;
  base[0] ^= 0xFF;
  rig.server->register_delta_base("brake-fw", base);
  sim::FaultSpec slow{"ota.server", FaultKind::kRepoSlowdown};
  slow.delay = SimTime::from_ms(20);
  rig.plan.window(SimTime::from_ms(1), SimTime::from_ms(400), slow);
  // Drive the ladder up with metadata traffic...
  std::uint64_t ms = 2;
  for (; ms <= 200 && rig.server->tier() == ServerTier::kNormal; ms += 2) {
    rig.sched.run_until(SimTime::from_ms(ms));
    (void)rig.server->fetch_metadata(ServeClass::kCampaign,
                                     SimTime::from_ms(ms));
  }
  ASSERT_GE(rig.server->tier(), ServerTier::kShedDelta);
  // ...then, still inside the brown-out, keep asking until a chunk is
  // admitted: it must NOT be delta-encoded (delta CPU is the first
  // capability shed).
  for (; ms <= 390; ms += 2) {
    rig.sched.run_until(SimTime::from_ms(ms));
    const ChunkResponse r = rig.server->fetch_chunk(
        ServeClass::kCampaign, "brake-fw", 0, 8192, SimTime::from_ms(ms));
    if (r.status == ServeStatus::kOk) {
      EXPECT_GE(rig.server->tier(), ServerTier::kShedDelta);
      EXPECT_FALSE(r.delta);
      EXPECT_EQ(r.wire_bytes, r.chunk.size());
      return;
    }
  }
  FAIL() << "no chunk was ever admitted";
}

// ---------------------------------------------------------------------------
// Client cooperation: kRetryAfter honored, deferrals != attempts

TEST(OtaServerClient, FullFetchThroughServingFront) {
  ServerRig rig;
  FullVerificationClient client = rig.make_client("primary");
  FullVerificationClient::RetryPolicy policy;
  policy.chunk_bytes = 8192;
  policy.server = rig.server.get();
  bool done = false;
  FullVerificationClient::RetryOutcome result;
  rig.sched.schedule_at(SimTime::from_ms(10), [&] {
    client.fetch_and_verify_with_retry(
        rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1, policy,
        [&](const FullVerificationClient::RetryOutcome& ro) {
          result = ro;
          done = true;
        });
  });
  rig.sched.run_until(SimTime::from_s(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(result.outcome.error, OtaError::kOk);
  EXPECT_EQ(result.outcome.image, rig.fw);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.server_deferrals, 0);
  EXPECT_EQ(result.wire_bytes, rig.fw.size());
  EXPECT_GT(rig.server->served(), 0u);
}

TEST(OtaServerClient, DeltaBaseShrinksWireBytes) {
  ServerRig rig;
  Bytes base = rig.fw;
  for (std::size_t i = 0; i < base.size(); i += 1024) base[i] ^= 0x55;
  rig.server->register_delta_base("brake-fw", base);
  FullVerificationClient client = rig.make_client("primary");
  FullVerificationClient::RetryPolicy policy;
  policy.chunk_bytes = 8192;
  policy.server = rig.server.get();
  bool done = false;
  FullVerificationClient::RetryOutcome result;
  rig.sched.schedule_at(SimTime::from_ms(10), [&] {
    client.fetch_and_verify_with_retry(
        rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1, policy,
        [&](const FullVerificationClient::RetryOutcome& ro) {
          result = ro;
          done = true;
        });
  });
  rig.sched.run_until(SimTime::from_s(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(result.outcome.error, OtaError::kOk);
  EXPECT_EQ(result.outcome.image, rig.fw);  // payload reassembled losslessly
  EXPECT_LT(result.wire_bytes, rig.fw.size() / 10);  // only diffs crossed
  EXPECT_EQ(rig.server->delta_chunks(), rig.fw.size() / 8192);
}

TEST(OtaServerClient, RetryAfterDefersWithoutBurningAttempts) {
  ServerRig rig;
  // Outage across the fetch start: with admission control the client is
  // slotted, not failed, so attempt #1 happens after recovery.
  rig.plan.window(SimTime::from_ms(5), SimTime::from_s(2),
                  {"ota.server", FaultKind::kOutage});
  FullVerificationClient client = rig.make_client("primary");
  FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 2;  // would be fatal if deferrals burned attempts
  policy.chunk_bytes = 8192;
  policy.server = rig.server.get();
  bool done = false;
  FullVerificationClient::RetryOutcome result;
  rig.sched.schedule_at(SimTime::from_ms(10), [&] {
    client.fetch_and_verify_with_retry(
        rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1, policy,
        [&](const FullVerificationClient::RetryOutcome& ro) {
          result = ro;
          done = true;
        });
  });
  rig.sched.run_until(SimTime::from_s(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(result.outcome.error, OtaError::kOk);
  EXPECT_GT(result.server_deferrals, 0);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_GT(result.finished_at, SimTime::from_s(2));  // after the outage
}

// ---------------------------------------------------------------------------
// Thundering herd: server-directed backoff de-synchronizes identical clients

struct HerdResult {
  std::vector<SimTime> finished;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
};

HerdResult run_herd(bool admission, std::size_t n) {
  ServerConfig cfg;
  cfg.admission_enabled = admission;
  ServerRig rig(cfg);
  rig.plan.window(SimTime::from_ms(5), SimTime::from_s(2),
                  {"ota.server", FaultKind::kOutage});
  std::vector<std::unique_ptr<FullVerificationClient>> clients;
  HerdResult hr;
  hr.finished.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<FullVerificationClient>(
        "v" + std::to_string(i), rig.director.trusted_root(),
        rig.images.trusted_root(), rig.t));
  }
  for (std::size_t i = 0; i < n; ++i) {
    FullVerificationClient* c = clients[i].get();
    // Identical retry state on purpose: same policy, same start instant, no
    // local jitter — the worst-case synchronized herd.
    FullVerificationClient::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff = SimTime::from_ms(100);
    policy.chunk_bytes = 8192;
    policy.server = rig.server.get();
    rig.sched.schedule_at(SimTime::from_ms(10), [&rig, &hr, i, c, policy] {
      c->fetch_and_verify_with_retry(
          rig.sched, rig.director, rig.images, "brake-fw", "brake-hw", 1,
          policy, [&hr, i](const FullVerificationClient::RetryOutcome& ro) {
            hr.finished[i] = ro.finished_at;
            if (ro.outcome.error != OtaError::kOk) ++hr.failed;
          });
    });
  }
  rig.sched.run_until(SimTime::from_s(120));
  hr.digest = attacks::timeline_digest(*rig.t.bus);
  return hr;
}

TEST(ThunderingHerd, ServerDirectedBackoffDesynchronizesAndRecoversAll) {
  const HerdResult on = run_herd(true, 8);
  EXPECT_EQ(on.failed, 0u) << "admission control must recover every vehicle";
  // De-synchronized: every client finishes at a distinct instant.
  std::set<std::uint64_t> distinct;
  for (const SimTime& f : on.finished) {
    EXPECT_GT(f, SimTime::zero());
    distinct.insert(f.ns);
  }
  EXPECT_EQ(distinct.size(), on.finished.size());

  // Control arm: same storm, admission off — blind exponential backoff
  // exhausts inside the outage and vehicles are left behind.
  const HerdResult off = run_herd(false, 8);
  EXPECT_GT(off.failed, 0u);
}

TEST(ThunderingHerd, TimelineDigestBitIdenticalAcrossRuns) {
  const HerdResult a = run_herd(true, 6);
  const HerdResult b = run_herd(true, 6);
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].ns, b.finished[i].ns);
  }
}

// ---------------------------------------------------------------------------
// Campaign wave backpressure

TEST(CampaignBackpressure, PausesWavesWhileServerSheds) {
  ServerConfig cfg;
  cfg.tier_window = SimTime::from_ms(500);
  ServerRig rig(cfg);
  // A slowdown brown-out spanning wave 0 and the inter-wave gap keeps the
  // shed ratio up at gating time.
  sim::FaultSpec slow{"ota.server", FaultKind::kRepoSlowdown};
  slow.delay = SimTime::from_ms(300);
  rig.plan.window(SimTime::from_ms(1), SimTime::from_s(30), slow);
  // Fleet-wide background pollers (every 100ms for 40s): while the brown-out
  // lasts they keep being shed, which is the live signal the wave gate reads.
  for (int k = 0; k < 400; ++k) {
    rig.sched.schedule_at(SimTime::from_ms(5 + 100 * std::uint64_t(k)),
                          [&rig] {
                            (void)rig.server->fetch_metadata(
                                ServeClass::kBackground, rig.sched.now());
                          });
  }

  CampaignConfig ccfg;
  ccfg.wave_size = 2;
  ccfg.wave_gap = SimTime::from_s(1);
  ccfg.vehicle_stagger = SimTime::from_ms(200);
  ccfg.wave_abort_ratio = 1.1;  // never abort; backpressure should carry it
  ccfg.retry.chunk_bytes = 8192;
  ccfg.retry.server = rig.server.get();
  ccfg.retry.max_attempts = 8;
  ccfg.pause_shed_ratio = 0.3;
  ccfg.resume_shed_ratio = 0.05;
  ccfg.backpressure_poll = SimTime::from_s(1);
  ccfg.max_backpressure_polls = 300;

  std::vector<std::unique_ptr<Flash>> flashes;
  std::vector<std::unique_ptr<FullVerificationClient>> clients;
  CampaignRunner runner(rig.sched, rig.director, rig.images, "brake-fw",
                        "brake-hw", ccfg);
  for (std::size_t i = 0; i < 4; ++i) {
    flashes.push_back(std::make_unique<Flash>());
    flashes.back()->provision(
        FirmwareImage{"brake-fw", 1, patterned(2 * Flash::kPageSize, 0x11)});
    clients.push_back(std::make_unique<FullVerificationClient>(
        "bp" + std::to_string(i), rig.director.trusted_root(),
        rig.images.trusted_root(), rig.t));
    runner.add_vehicle("bp" + std::to_string(i), *flashes.back(),
                       *clients.back());
  }
  bool done = false;
  runner.start([&] { done = true; });
  rig.sched.run_until(SimTime::from_s(600));

  ASSERT_TRUE(done);
  EXPECT_TRUE(runner.finished());
  EXPECT_FALSE(runner.aborted());
  EXPECT_EQ(runner.updated(), 4u);
  // Wave 1's dispatch was held back at least once while the front was
  // shedding, and the pause shows up in the deterministic JSON export.
  EXPECT_GT(runner.backpressure_pauses(), 0u);
  EXPECT_NE(runner.to_json().find("\"backpressure_pauses\":"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Session frontend (cloud): ticket cache amortizes real handshakes

TEST(SessionFrontend, TicketCacheAmortizesHandshakes) {
  crypto::Drbg rng(99u);
  crypto::EcdsaPrivateKey authority = crypto::EcdsaPrivateKey::generate(rng);
  cloud::FrontendConfig fcfg;
  fcfg.ticket_lifetime = SimTime::from_s(100);
  cloud::SessionFrontend front =
      cloud::SessionFrontend::create("ota-front", authority, rng, fcfg);

  const cloud::ConnectResult first = front.connect("veh-0", SimTime::from_s(1));
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.resumed);
  const cloud::ConnectResult again = front.connect("veh-0", SimTime::from_s(2));
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.ticket_id, first.ticket_id);
  EXPECT_LT(again.latency, first.latency);

  // Expired ticket forces a fresh handshake with a new ticket.
  const cloud::ConnectResult late =
      front.connect("veh-0", SimTime::from_s(200));
  ASSERT_TRUE(late.ok);
  EXPECT_FALSE(late.resumed);
  EXPECT_NE(late.ticket_id, first.ticket_id);
  EXPECT_EQ(front.handshakes(), 2u);
  EXPECT_EQ(front.resumptions(), 1u);
}

TEST(SessionFrontend, BoundFrontTracesRejectedHandshake) {
  // Why a vehicle did not update: a front bound to the shared plane records
  // the handshake the vehicle rejected (credential not signed by the pinned
  // authority) as an event and a counter there.
  crypto::Drbg rng(7u);
  using crypto::EcdsaPrivateKey;
  const EcdsaPrivateKey authority = EcdsaPrivateKey::generate(rng);
  const EcdsaPrivateKey rogue = EcdsaPrivateKey::generate(rng);
  EcdsaPrivateKey identity = EcdsaPrivateKey::generate(rng);
  cloud::ServerCredential cred =
      cloud::ServerCredential::issue("ota-front", identity.public_key(), rogue);
  sim::Telemetry t;
  cloud::SessionFrontend front(std::move(cred), std::move(identity),
                               authority.public_key(), rng, {}, t);

  EXPECT_FALSE(front.connect("veh-7", SimTime::from_s(1)).ok);
  EXPECT_EQ(front.handshakes(), 0u);
  EXPECT_EQ(t.metrics->counter_value("cloud.front.failures"), 1u);
  const sim::TraceEvent* ev =
      t.bus->find_first("cloud.front", "handshake_fail");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->detail, "veh-7");
}

// ---------------------------------------------------------------------------
// Satellite: ota.repo.* metrics survive merge_from (sharded runs)

TEST(RepositoryServerMetrics, SurviveMergeFrom) {
  ServerRig rig;
  const SimTime t0 = SimTime::from_ms(10);
  (void)rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  (void)rig.server->fetch_metadata(ServeClass::kCampaign, t0);
  (void)rig.server->fetch_chunk(ServeClass::kCampaign, "brake-fw", 0, 8192, t0);
  (void)rig.server->fetch_chunk(ServeClass::kCampaign, "brake-fw", 0, 8192, t0);

  sim::MetricsRegistry merged;
  merged.merge_from(*rig.t.metrics);
  EXPECT_EQ(merged.counter_value("ota.repo.requests"), rig.server->requests());
  EXPECT_EQ(merged.counter_value("ota.repo.served"), rig.server->served());
  EXPECT_EQ(merged.counter_value("ota.repo.coalesced"),
            rig.server->coalesced());
  EXPECT_EQ(merged.counter_value("ota.repo.cache_hits"),
            rig.server->cache_hits());
  EXPECT_EQ(merged.counter_value("ota.repo.cache_misses"),
            rig.server->cache_misses());
  EXPECT_GT(merged.counter_value("ota.repo.requests"), 0u);

  // Merging a second shard's worth adds (counters are additive), exactly as
  // the sharded metro run folds per-shard registries.
  sim::MetricsRegistry second;
  second.merge_from(*rig.t.metrics);
  merged.merge_from(second);
  EXPECT_EQ(merged.counter_value("ota.repo.requests"),
            2 * rig.server->requests());
}

}  // namespace
}  // namespace aseck::ota
