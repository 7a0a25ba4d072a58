// Experiment E21 — campaign-storm-hardened OTA serving front (paper §5:
// fleet-scale in-field patching makes the update backend itself a
// safety-relevant component; §7: the secure-update layer has to keep
// delivering under the load its own campaigns generate).
//
// Three storm shapes, each run twice — admission control ON (the hardened
// `ota::RepositoryServer` front) and OFF (the legacy "repository cannot
// fail" control arm):
//
//   1. sync_wave  — the whole fleet is dispatched in ONE synchronized wave
//      (vehicle_stagger = 0) on top of a background-poller floor: the
//      classic wave stampede. ON sheds the burst with slotted kRetryAfter
//      and keeps the admitted queue delay under its configured bound; OFF
//      lets the virtual queue grow without limit.
//
//   2. retry_align — a repository outage sized so that blind client-side
//      exponential backoff (all clients aligned, no jitter) burns through
//      max_attempts INSIDE the outage. OFF strands the fleet
//      (kRetriesExhausted); ON answers the outage with slotted retry-after
//      deferrals that do not count as attempts, so every vehicle waits out
//      the outage de-synchronized and recovers.
//
//   3. slowdown_wave — a kRepoSlowdown brown-out (service-latency inflation,
//      not a binary outage) lands mid-campaign: the ON server walks its
//      degradation ladder (normal -> shed_delta -> shed_refresh ->
//      shed_admission) and back down after the window, while the
//      CampaignRunner's wave-level backpressure pauses dispatch until the
//      shed ratio recovers. OFF has no ladder and no backpressure — the
//      queue just absorbs the inflated service times.
//
// Preamble: measures the satellite win of Repository::snapshot() (one
// copy-on-write MetadataBundle shared per generation) against a full bundle
// copy per request. Its timing (process CPU, min of 5 passes) is host
// columns; the JSON report carries only deterministic facts.
//
// Exit code = invariant violations, capped at 255:
//   * any ON arm with unrecovered vehicles, an unfinished campaign, an
//     admitted queue delay above the configured bound, an unbounded p99
//     time-to-update, or a ladder that fails to return to kNormal;
//   * the slowdown ON arm if the ladder or the wave backpressure never
//     engaged (the brown-out must be visible to be survivable);
//   * any OFF arm that fails to look worse than its ON twin (no stranded
//     vehicles in retry_align, no queue-delay blow-up in the others) —
//     a control arm that cannot demonstrate the failure mode is a bug too.
// Output is bit-deterministic per seed: `determinism.e21` compares two
// `--smoke --seed 42` runs byte-for-byte.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cloud/frontend.hpp"
#include "ecu/flash.hpp"
#include "ota/campaign.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "ota/server.hpp"
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

constexpr std::size_t kImageBytes = 64 * 1024;
constexpr std::size_t kChunkBytes = 16 * 1024;

/// v1 is the fleet's installed image; v2 differs only in one 4 KiB region,
/// so delta-encoded chunks collapse to the diff + per-chunk frame headers.
Bytes base_image() { return patterned(kImageBytes, 0x11); }
Bytes next_image() {
  Bytes b = base_image();
  for (std::size_t i = 24 * 1024; i < 28 * 1024; ++i) b[i] ^= 0xA5;
  return b;
}

// --- Preamble: snapshot coalescing vs full bundle copies ---------------------

struct SnapshotResult {
  std::size_t iters = 0;
  bool shared = false;        // every snapshot() of one generation aliases
  bool generation_stable = false;
  double us_per_copy = 0.0;   // process CPU, min of 5
  double us_per_snapshot = 0.0;
  int violations = 0;
};

SnapshotResult run_snapshot_preamble(std::uint64_t seed, bool smoke) {
  crypto::Drbg rng{seed};
  ota::Repository repo(rng, "director", SimTime::from_s(360000));
  for (int i = 0; i < 8; ++i) {
    repo.add_target("ecu" + std::to_string(i) + "-fw", patterned(4096, 0x40 + i),
                    2, "ecu-hw");
  }
  repo.publish(SimTime::from_ms(1));

  SnapshotResult r;
  r.iters = smoke ? 500 : 20000;

  volatile std::size_t sink = 0;
  const std::uint64_t gen0 = repo.generation();
  std::shared_ptr<const ota::MetadataBundle> first = repo.snapshot();
  bool shared = true;
  const auto [copy_s, snapshot_s] = benchutil::time_min_of(
      smoke ? 1 : 5,
      [&] {
        for (std::size_t i = 0; i < r.iters; ++i) {
          ota::MetadataBundle copy = repo.metadata();  // the pre-snapshot cost
          sink = sink + copy.targets.body.targets.size();
        }
      },
      [&] {
        for (std::size_t i = 0; i < r.iters; ++i) {
          std::shared_ptr<const ota::MetadataBundle> s = repo.snapshot();
          shared = shared && s.get() == first.get();
          sink = sink + s->targets.body.targets.size();
        }
      });
  (void)sink;

  r.shared = shared;
  r.generation_stable = repo.generation() == gen0;
  r.us_per_copy = copy_s * 1e6 / static_cast<double>(r.iters);
  r.us_per_snapshot = snapshot_s * 1e6 / static_cast<double>(r.iters);
  if (!r.shared) ++r.violations;
  if (!r.generation_stable) ++r.violations;
  return r;
}

// --- Storm shapes ------------------------------------------------------------

enum class Shape { kSyncWave, kRetryAlign, kSlowdownWave };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kSyncWave: return "sync_wave";
    case Shape::kRetryAlign: return "retry_align";
    case Shape::kSlowdownWave: return "slowdown_wave";
  }
  return "?";
}

struct StormRow {
  Shape shape = Shape::kSyncWave;
  bool admission = false;
  std::size_t fleet = 0;
  std::size_t updated = 0;
  std::size_t unrecovered = 0;
  bool campaign_finished = false;
  double p50_ms = 0.0;   // time-to-update over updated vehicles (sim time)
  double p99_ms = 0.0;
  double max_queue_ms = 0.0;  // worst admitted queueing delay
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t refreshes = 0;
  double cache_hit_rate = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t delta_saved = 0;
  std::string peak_tier;
  std::string final_tier;
  std::uint64_t transitions = 0;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t bg_ok = 0;
  std::uint64_t bg_shed = 0;
  int violations = 0;  // ON-arm absolute invariants only (pairs checked later)
};

double percentile_ms(std::vector<double> ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min(ms.size() - 1.0, p * static_cast<double>(ms.size())));
  return ms[idx];
}

StormRow run_storm(Shape shape, bool admission, std::uint64_t seed,
                   bool smoke) {
  const std::size_t fleet = smoke ? 12 : 32;
  const std::size_t pollers = smoke ? 4 : 12;
  const SimTime horizon = SimTime::from_s(240);

  Scheduler sched;
  crypto::Drbg rng{seed};
  ota::Repository director(rng, "director", SimTime::from_s(360000));
  ota::Repository images(rng, "image-repo", SimTime::from_s(360000));
  const Bytes fw = next_image();
  director.add_target("vecu-fw", fw, 2, "vecu-hw");
  images.add_target("vecu-fw", fw, 2, "vecu-hw");
  director.publish(SimTime::from_ms(1));
  images.publish(SimTime::from_ms(1));

  ota::ServerConfig scfg;
  scfg.admission_enabled = admission;
  scfg.metadata_service = SimTime::from_ms(2);
  scfg.chunk_service = SimTime::from_ms(2);
  scfg.cache_hit_service = SimTime::from_us(250);
  scfg.delta_cpu_factor = 3.0;
  scfg.max_queue_delay = SimTime::from_ms(20);
  scfg.background_rps = 400;  // above the poller floor: steady state is calm
  scfg.tier_window = SimTime::from_ms(100);
  scfg.retry_slot = SimTime::from_ms(5);
  scfg.outage_retry_base = SimTime::from_ms(300);
  ota::RepositoryServer server(director, images, scfg);
  server.register_delta_base("vecu-fw", base_image());

  FaultPlan plan(sched, seed);
  server.set_fault_port(&plan.port("ota.server"));
  if (shape == Shape::kRetryAlign) {
    // Outage long enough that 100ms-seeded exponential backoff with
    // max_attempts = 6 (backoffs 100+200+400+800+1600 = 3.1s) exhausts
    // INSIDE it when every attempt hard-fails.
    FaultSpec spec;
    spec.target = "ota.server";
    spec.kind = FaultKind::kOutage;
    plan.window(SimTime::from_ms(1), SimTime::from_s(6), spec);
  } else if (shape == Shape::kSlowdownWave) {
    FaultSpec spec;
    spec.target = "ota.server";
    spec.kind = FaultKind::kRepoSlowdown;
    spec.delay = SimTime::from_ms(8);  // brown-out: per-request inflation
    plan.window(SimTime::from_s(2), SimTime::from_s(14), spec);
  }

  ota::CampaignConfig cfg;
  // Slowdown shape: many small waves so dispatch decisions keep landing
  // inside the brown-out window — that is what the wave gate is for.
  cfg.wave_size = shape == Shape::kSlowdownWave ? std::max<std::size_t>(fleet / 8, 1) : fleet;
  cfg.wave_gap = SimTime::from_s(1);
  cfg.vehicle_stagger =
      shape == Shape::kSyncWave ? SimTime::zero() : SimTime::from_ms(50);
  cfg.wave_abort_ratio = 2.0;  // never abort: count stranded vehicles instead
  cfg.confirm_timeout = SimTime::from_s(30);
  cfg.retry.max_attempts = 6;
  cfg.retry.initial_backoff = SimTime::from_ms(100);
  cfg.retry.chunk_bytes = kChunkBytes;
  cfg.retry.link_bytes_per_sec = 2'000'000;
  cfg.retry.server = &server;
  if (admission && shape == Shape::kSlowdownWave) {
    cfg.pause_shed_ratio = 0.08;  // wave-level backpressure (ON arm only)
    cfg.resume_shed_ratio = 0.02;
    cfg.backpressure_poll = SimTime::from_ms(500);
  }

  ota::CampaignRunner camp(sched, director, images, "vecu-fw", "vecu-hw", cfg);

  std::vector<std::unique_ptr<Flash>> flashes;
  std::vector<std::unique_ptr<ota::FullVerificationClient>> clients;
  const FirmwareImage oldf{"vecu-fw", 1, base_image()};
  for (std::size_t i = 0; i < fleet; ++i) {
    const std::string id = "vm" + std::to_string(i);
    flashes.push_back(std::make_unique<Flash>());
    flashes.back()->provision(oldf);
    clients.push_back(std::make_unique<ota::FullVerificationClient>(
        id, director.trusted_root(), images.trusted_root()));
    camp.add_vehicle(id, *flashes.back(), *clients.back());
  }

  // Background metadata pollers: the load floor the campaign storms on top
  // of, and the traffic the kShedRefresh tier deliberately rejects.
  StormRow row;
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&sched, &server, &row, poll, horizon] {
    const SimTime now = sched.now();
    if (now >= horizon) return;
    const ota::MetadataResponse r =
        server.fetch_metadata(ota::ServeClass::kBackground, now);
    SimTime next = SimTime::from_ms(50);
    if (r.status == ota::ServeStatus::kOk) {
      ++row.bg_ok;
    } else {
      ++row.bg_shed;
      // Cooperative poller: honor the server-suggested backoff instead of
      // hammering the shed path (which would drag the slot cursor forward
      // for everyone).
      next = std::max(next, r.retry_after);
    }
    sched.schedule_after(next, [poll] { (*poll)(); });
  };
  for (std::size_t j = 0; j < pollers; ++j) {
    sched.schedule_at(SimTime::from_ms(5 + 7 * j), [poll] { (*poll)(); });
  }

  camp.start();
  sched.run_until(horizon);
  *poll = {};  // the poller captures itself; break the cycle so it is freed
  server.observe(sched.now());  // idle windows walk the ladder back down

  row.shape = shape;
  row.admission = admission;
  row.fleet = fleet;
  row.updated = camp.updated();
  row.unrecovered = fleet - camp.updated();
  row.campaign_finished = camp.finished();
  std::vector<double> finished_ms;
  for (const ota::VehicleLedger& l : camp.ledger()) {
    if (l.outcome == ota::VehicleOutcome::kUpdated ||
        l.outcome == ota::VehicleOutcome::kUpdatedAfterPowerLoss) {
      finished_ms.push_back(l.finished_at.ms());
    }
  }
  row.p50_ms = percentile_ms(finished_ms, 0.50);
  row.p99_ms = percentile_ms(finished_ms, 0.99);
  row.max_queue_ms = server.max_queue_delay_seen().ms();
  row.requests = server.requests();
  row.served = server.served();
  row.shed = server.shed();
  row.coalesced = server.coalesced();
  row.refreshes = server.snapshot_refreshes();
  row.cache_hit_rate = server.cache_hit_rate();
  row.bytes_sent = server.bytes_sent();
  row.delta_saved = server.delta_bytes_saved();
  row.peak_tier = server_tier_name(server.peak_tier());
  row.final_tier = server_tier_name(server.tier());
  row.transitions = server.degraded_transitions();
  row.backpressure_pauses = camp.backpressure_pauses();

  if (admission) {
    // Absolute invariants of the hardened front.
    row.violations += static_cast<int>(row.unrecovered);
    if (!row.campaign_finished) ++row.violations;
    if (row.max_queue_ms > scfg.max_queue_delay.ms() + 1e-9) ++row.violations;
    if (row.p99_ms > 120000.0 || finished_ms.empty()) ++row.violations;
    if (row.final_tier != "normal") ++row.violations;
    if (shape == Shape::kSlowdownWave) {
      if (row.peak_tier == "normal") ++row.violations;       // ladder unused
      if (row.backpressure_pauses == 0) ++row.violations;    // gate unused
    }
  }
  return row;
}

/// OFF arm must demonstrate the stampede its ON twin prevents.
int pair_violations(const StormRow& on, const StormRow& off) {
  int v = 0;
  switch (on.shape) {
    case Shape::kRetryAlign:
      if (off.unrecovered == 0) ++v;  // aligned retries should strand fleet
      break;
    case Shape::kSyncWave:
    case Shape::kSlowdownWave:
      if (off.max_queue_ms <= on.max_queue_ms) ++v;  // no queue blow-up shown
      break;
  }
  return v;
}

// --- Session frontend: handshake amortization over a storm wave --------------

struct FrontendRow {
  std::size_t vehicles = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t resumptions = 0;
  double resumption_rate = 0.0;
  int violations = 0;
};

FrontendRow run_frontend(std::uint64_t seed, bool smoke) {
  crypto::Drbg rng{seed};
  crypto::EcdsaPrivateKey authority = crypto::EcdsaPrivateKey::generate(rng);
  cloud::SessionFrontend fe =
      cloud::SessionFrontend::create("ota-front", authority, rng);
  FrontendRow r;
  r.vehicles = smoke ? 8 : 24;
  // Wave 1: cold fleet (full handshakes). Waves 2-3: the re-polls and
  // server-directed re-admissions of a storm resume on cached tickets.
  for (int wave = 0; wave < 3; ++wave) {
    for (std::size_t i = 0; i < r.vehicles; ++i) {
      const cloud::ConnectResult c =
          fe.connect("vm" + std::to_string(i), SimTime::from_s(1 + wave));
      if (!c.ok) ++r.violations;
      if (wave > 0 && !c.resumed) ++r.violations;
    }
  }
  r.handshakes = fe.handshakes();
  r.resumptions = fe.resumptions();
  r.resumption_rate = fe.resumption_rate();
  if (r.handshakes != r.vehicles) ++r.violations;
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

  std::printf("E21: campaign-storm-hardened OTA serving front\n");
  std::printf("(seed %llu; invariant: with admission control every vehicle "
              "recovers, admitted queue delay stays bounded, and the "
              "degradation ladder returns to normal)\n\n",
              static_cast<unsigned long long>(seed));

  int violations = 0;

  // Preamble — the snapshot-coalescing satellite, measured.
  const SnapshotResult snap = run_snapshot_preamble(seed, smoke);
  violations += snap.violations;
  std::printf("Preamble: metadata snapshot coalescing (%zu iterations)\n",
              snap.iters);
  std::printf("  one shared generation per wave: %s; generation stable: %s\n",
              snap.shared ? "yes" : "NO",
              snap.generation_stable ? "yes" : "NO");
  benchutil::Table snap_table({{"us_per_copy", benchutil::host},
                               {"us_per_snapshot", benchutil::host}});
  snap_table.add_row({benchutil::fmt("%.2f", snap.us_per_copy),
                      benchutil::fmt("%.3f", snap.us_per_snapshot)});
  snap_table.print();
  std::printf("\n");

  // Storm matrix — each shape, admission ON vs OFF.
  const std::vector<Shape> shapes = {Shape::kSyncWave, Shape::kRetryAlign,
                                     Shape::kSlowdownWave};
  benchutil::Table table(
      {"shape", "admission", "updated", "stranded", "p50_ms", "p99_ms",
       "max_q_ms", "shed", "coalesced", "cache_hit", "wire_kb", "delta_kb",
       "peak_tier", "final_tier", "bp_pauses", "viol"});
  std::vector<StormRow> rows;
  for (const Shape s : shapes) {
    StormRow on = run_storm(s, /*admission=*/true, seed, smoke);
    StormRow off = run_storm(s, /*admission=*/false, seed, smoke);
    const int pv = pair_violations(on, off);
    off.violations += pv;
    violations += on.violations + off.violations;
    for (const StormRow* r : {&on, &off}) {
      table.add_row(
          {shape_name(r->shape), r->admission ? "on" : "off",
           benchutil::fmt_u(r->updated) + "/" + benchutil::fmt_u(r->fleet),
           benchutil::fmt_u(r->unrecovered), benchutil::fmt("%.1f", r->p50_ms),
           benchutil::fmt("%.1f", r->p99_ms),
           benchutil::fmt("%.2f", r->max_queue_ms), benchutil::fmt_u(r->shed),
           benchutil::fmt_u(r->coalesced),
           benchutil::fmt("%.3f", r->cache_hit_rate),
           benchutil::fmt_u(r->bytes_sent / 1024),
           benchutil::fmt_u(r->delta_saved / 1024), r->peak_tier,
           r->final_tier, benchutil::fmt_u(r->backpressure_pauses),
           std::to_string(r->violations)});
    }
    rows.push_back(on);
    rows.push_back(off);
  }
  std::printf("Storm matrix: admission control ON vs OFF\n");
  table.print();
  std::printf("\n");

  // Session frontend — handshake amortization across storm re-polls.
  const FrontendRow fe = run_frontend(seed + 7, smoke);
  violations += fe.violations;
  std::printf("Session frontend: %zu vehicles x 3 waves: %llu full "
              "handshakes, %llu ticket resumptions (rate %.3f), "
              "violations=%d\n\n",
              fe.vehicles, static_cast<unsigned long long>(fe.handshakes),
              static_cast<unsigned long long>(fe.resumptions),
              fe.resumption_rate, fe.violations);

  // Deterministic JSON report (`determinism.e21` compares two seeded runs; no
  // wall-clock timing in here).
  std::string json = "{\"experiment\":\"e21_campaign_storm\",\"seed\":" +
                     std::to_string(seed) +
                     ",\"snapshot\":{\"iters\":" + std::to_string(snap.iters) +
                     ",\"shared\":" + (snap.shared ? "true" : "false") +
                     ",\"generation_stable\":" +
                     (snap.generation_stable ? "true" : "false") +
                     "},\"storms\":[";
  char buf[512];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StormRow& r = rows[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"shape\":\"%s\",\"admission\":%s,\"fleet\":%zu,\"updated\":%zu,"
        "\"unrecovered\":%zu,\"finished\":%s,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"max_queue_ms\":%.3f,\"requests\":%llu,\"served\":%llu,"
        "\"shed\":%llu,\"coalesced\":%llu,\"refreshes\":%llu,"
        "\"cache_hit_rate\":%.3f,\"bytes_sent\":%llu,\"delta_saved\":%llu,"
        "\"peak_tier\":\"%s\",\"final_tier\":\"%s\",\"transitions\":%llu,"
        "\"backpressure_pauses\":%llu,\"bg_ok\":%llu,\"bg_shed\":%llu,"
        "\"violations\":%d}",
        i ? "," : "", shape_name(r.shape), r.admission ? "true" : "false",
        r.fleet, r.updated, r.unrecovered,
        r.campaign_finished ? "true" : "false", r.p50_ms, r.p99_ms,
        r.max_queue_ms, static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(r.served),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.coalesced),
        static_cast<unsigned long long>(r.refreshes), r.cache_hit_rate,
        static_cast<unsigned long long>(r.bytes_sent),
        static_cast<unsigned long long>(r.delta_saved), r.peak_tier.c_str(),
        r.final_tier.c_str(), static_cast<unsigned long long>(r.transitions),
        static_cast<unsigned long long>(r.backpressure_pauses),
        static_cast<unsigned long long>(r.bg_ok),
        static_cast<unsigned long long>(r.bg_shed), r.violations);
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"frontend\":{\"vehicles\":%zu,\"handshakes\":%llu,"
                "\"resumptions\":%llu,\"resumption_rate\":%.3f},"
                "\"violations\":%d}",
                fe.vehicles, static_cast<unsigned long long>(fe.handshakes),
                static_cast<unsigned long long>(fe.resumptions),
                fe.resumption_rate, violations);
  json += buf;
  std::printf("%s\n", json.c_str());

  return benchutil::exit_status(violations);
}
