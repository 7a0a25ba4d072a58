// Experiment E23 — measured boot chain + power-cut-survivable provisioning
// (paper §3: the Secure Processing layer's secure boot must gate key
// release; §5/§7: fleet provisioning and update paths must survive the most
// common field hazard, a power cut, without bricking or mis-unlocking).
//
// Three parts:
//
//   A. Exhaustive power-cut sweep over the combined provisioning + install
//      path: a campaign pushes a transactional kvstore config (new image
//      signature + campaign parameters) and installs the new image into the
//      A/B flash, with ONE shared fault port cutting power at every single
//      write-op index across both substrates, plus a cut-free control run.
//      After each cut the ECU reboots through the full measured chain
//      (ROM -> SHE boot-MAC -> signed app slot) and the invariants hold:
//        * never bricked — every recovery boot lands in normal/fallback
//          mode with a verified image;
//        * keys unlock if and only if the measurement passed;
//        * the kv transaction is atomic — after recovery the store holds
//          ALL of the pushed keys or NONE of them, never a prefix;
//        * the retried push + install converges on the new image, and the
//          final attestation evidence round-trips and verifies.
//
//   B. Measurement gate: a tampered BOOT_MAC must yield a booting chain
//      (SHE semantics) whose boot-protected keys stay locked, while the
//      (unprotected) attestation key still signs the failure report.
//      Plus the boot-time budget: modeled end-to-end boot latency versus
//      app image size (flash scan + kv scan + measure + verify terms).
//
//   C. Fleet attestation: every vehicle's evidence serializes, parses, and
//      verifies (nonce freshness + PCR replay + ECDSA); one forged blob per
//      category is rejected. Verify throughput is wall-clock, a host column
//      that --smoke omits.
//
// Exit code = invariant violations, capped at 255. Output is
// bit-deterministic per seed: the `determinism.e23` ctest compares two
// `--smoke --seed 42` runs byte for byte.
//
// Flags: --seed N  --smoke

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/drbg.hpp"
#include "crypto/service.hpp"
#include "crypto/sha256.hpp"
#include "ecu/boot.hpp"
#include "ecu/flash.hpp"
#include "ecu/kvstore.hpp"
#include "ecu/she.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"

using namespace aseck;
using crypto::CryptoService;
using crypto::KeyHandle;
using crypto::KeyPolicy;
using crypto::ServiceStatus;
using ecu::AttestationEvidence;
using ecu::BootChain;
using ecu::BootChainConfig;
using ecu::BootMode;
using ecu::FirmwareImage;
using ecu::Flash;
using ecu::KvStore;
using ecu::KvTransaction;
using ecu::She;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using util::Bytes;
using util::SimTime;

namespace {

Bytes patterned(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xFF);
  }
  return b;
}

crypto::Block block_of(std::uint8_t fill) {
  crypto::Block b{};
  b.fill(fill);
  return b;
}

ecu::SheKeyFlags mac_flags() {
  ecu::SheKeyFlags f;
  f.key_usage_mac = true;
  return f;
}

/// Trust material shared by every run (deterministic, computed once).
struct TrustAnchors {
  crypto::EcdsaPrivateKey oem;
  Bytes anchor_bytes;       // SEC1 public key stored under "boot.anchor"
  Bytes attest_secret;      // device attestation key scalar
  FirmwareImage v1, v2;
  Bytes sig_v1, sig_v2;     // OEM signatures over the image digests
  Bytes bootloader = patterned(512, 0x5A);

  explicit TrustAnchors(std::uint64_t seed)
      : oem([&] {
          crypto::Drbg rng(seed ^ 0x0e23ULL);
          return crypto::EcdsaPrivateKey::generate(rng);
        }()),
        v1{"vecu-fw", 1, patterned(2 * Flash::kPageSize, 0x11)},
        v2{"vecu-fw", 2, patterned(3 * Flash::kPageSize + 700, 0x33)} {
    anchor_bytes = oem.public_key().to_bytes();
    crypto::Drbg drng(seed ^ 0xa77e57ULL);
    attest_secret = drng.bytes(32);
    sig_v1 = oem.sign_digest(v1.digest()).to_bytes();
    sig_v2 = oem.sign_digest(v2.digest()).to_bytes();
  }
};

/// One fully-provisioned vehicle: SHE + flash(v1) + kv(anchor, sig_v1) +
/// sealed service with an attestation key and a boot-protected SecOC key.
struct Vehicle {
  She she;
  Flash flash;
  CryptoService svc;
  KvStore kv;
  crypto::PartitionId part = 0;
  KeyHandle attest_key{};
  KeyHandle secoc_key{};
  std::unique_ptr<BootChain> chain;

  Vehicle(const TrustAnchors& t, std::uint8_t uid_salt)
      : she(Bytes(15, uid_salt), 42), svc("vecu-crypto") {
    she.provision_key(ecu::SheSlot::kBootMacKey, block_of(0xB0), mac_flags());
    she.autonomous_bootstrap(t.bootloader);
    flash.provision(t.v1);
    kv.mount();
    KvTransaction txn;
    txn.put(ecu::kKvAppAnchorKey, t.anchor_bytes);
    txn.put(ecu::boot_sig_key(t.v1.digest()), t.sig_v1);
    kv.commit(txn);
    part = svc.register_partition("boot");
    KeyPolicy sign;
    sign.usage = crypto::kUsageSign;
    attest_key = svc.import_ecdsa(part, t.attest_secret, sign);
    KeyPolicy protected_mac;
    protected_mac.usage = crypto::kUsageMac;
    protected_mac.boot_protected = true;
    secoc_key = svc.import_mac(part, block_of(0x51), protected_mac);
    svc.seal();

    BootChainConfig cfg;
    cfg.bootloader = t.bootloader;
    cfg.rom_anchor = crypto::sha256(t.bootloader);
    cfg.recovery_image = FirmwareImage{"limp", 1, Bytes(256, 0xEE)};
    chain = std::make_unique<BootChain>(she, flash, svc, &kv, std::move(cfg));
    chain->set_attestation_key(part, attest_key);
  }

  crypto::EcdsaPublicKey attest_pub() const {
    crypto::EcdsaPublicKey pub;
    svc.export_public(attest_key, &pub);
    return pub;
  }

  bool secoc_usable() {
    crypto::Block tag;
    return svc.mac(part, secoc_key, util::from_string("probe"), &tag) ==
           ServiceStatus::kOk;
  }
};

// --- Part A: exhaustive shared-port cut sweep --------------------------------

struct SweepRow {
  std::int64_t cut_op = -1;
  std::string phase;       // step the cut interrupted
  std::string mode;        // boot mode right after recovery
  bool measured = false;
  bool keys = false;
  std::string kv_state;    // "all" | "none" after recovery (atomicity)
  bool converged = false;  // retried push+install reached v2 normal boot
  bool attested = false;
  double recovery_boot_us = 0.0;
  int violations = 0;
  bool cut = false;
};

SweepRow run_cut(std::int64_t k, std::uint64_t seed, const TrustAnchors& t) {
  Scheduler sched;
  FaultPlan plan(sched, seed);
  FaultSpec spec;
  spec.target = "vecu.power";
  spec.kind = FaultKind::kPowerLoss;
  spec.probability = 0.0;  // purely scripted: exact write-op index
  spec.page_index = k;
  plan.window(SimTime::zero(), SimTime::from_s(3600), spec);
  sched.run_until(SimTime::from_ms(1));

  Vehicle v(t, 0xA5);
  // ONE power rail: kv record appends and flash page/header writes share the
  // same write-op counter, so a single cut index sweeps the whole path.
  sim::FaultPort* rail = &plan.port("vecu.power");
  v.kv.set_fault_port(rail);
  v.flash.set_fault_port(rail);

  SweepRow row;
  row.cut_op = k;
  const SimTime t0 = SimTime::from_s(1);
  const SimTime confirm = SimTime::from_s(30);

  // The campaign's transactional config push: the v2 image signature plus
  // campaign parameters land atomically or not at all.
  KvTransaction push;
  push.put(ecu::boot_sig_key(t.v2.digest()), t.sig_v2);
  push.put("campaign.wave", Bytes{2});
  push.put("campaign.deadline", Bytes{0x07});

  const auto down = [&] { return v.kv.lost_power() || v.flash.lost_power(); };
  bool cut = false;
  if (!v.kv.commit(push)) {
    cut = true;
    row.phase = "kv_push";
  }
  if (!cut && !v.flash.stage(t.v2)) {
    cut = true;
    row.phase = "stage";
  }
  if (!cut && !v.flash.activate(t0, confirm)) {
    cut = true;
    row.phase = "activate";
  }
  if (!cut) {
    v.flash.commit();
    if (down()) {
      cut = true;
      row.phase = "commit";
    }
  }
  row.cut = cut;
  if (!cut) row.phase = "complete";

  // Reboot through the measured chain (this IS the recovery pass: it mounts
  // the kvstore and runs flash boot-time recovery inside).
  const SimTime t1 = t0 + SimTime::from_s(5);
  const BootChain::Report rep = v.chain->run(t1);
  row.mode = ecu::boot_mode_name(rep.mode);
  row.measured = rep.measured_ok;
  row.keys = rep.keys_unlocked;
  row.recovery_boot_us = rep.boot_us;

  // Invariant: never bricked, never hung, never limped to recovery — both
  // A/B images are verifiable, so every single cut must still yield a
  // normal or fallback measured boot.
  if (rep.hung || rep.mode == BootMode::kNone ||
      rep.mode == BootMode::kRecovery || !rep.flash.bootable) {
    ++row.violations;
  }
  if (!rep.measured_ok) ++row.violations;
  // Invariant: keys unlock IFF the measurement passed (here: they must be
  // unlocked, and the boot-protected key must actually work).
  if (rep.keys_unlocked != rep.measured_ok) ++row.violations;
  if (rep.keys_unlocked != v.secoc_usable()) ++row.violations;

  // Invariant: kv atomicity — all three pushed keys or none of them.
  const int present =
      (v.kv.contains(ecu::boot_sig_key(t.v2.digest())) ? 1 : 0) +
      (v.kv.contains("campaign.wave") ? 1 : 0) +
      (v.kv.contains("campaign.deadline") ? 1 : 0);
  row.kv_state = present == 3 ? "all" : (present == 0 ? "none" : "TORN");
  if (present != 0 && present != 3) ++row.violations;

  // The campaign retries: re-push + re-install (no further cuts scripted —
  // the exact-index port fires once), then the final boot must be a normal
  // measured boot of v2.
  if (present == 0 && !v.kv.commit(push)) ++row.violations;
  const FirmwareImage* active = v.flash.active();
  if (active && active->version == t.v2.version) {
    if (v.flash.confirm_pending()) v.flash.commit();
  } else if (!v.flash.stage(t.v2) || !v.flash.activate(t1, confirm)) {
    ++row.violations;
  } else {
    v.flash.commit();
  }
  const BootChain::Report fin = v.chain->run(t1 + SimTime::from_s(5));
  active = v.flash.active();
  row.converged = fin.mode == BootMode::kNormal && fin.measured_ok &&
                  fin.keys_unlocked && active &&
                  active->version == t.v2.version;
  if (!row.converged) ++row.violations;

  // Final attestation round-trips and verifies against the device key.
  const Bytes nonce = util::from_string("e23-nonce");
  const auto ev = v.chain->attest(nonce);
  if (ev) {
    const auto back = AttestationEvidence::parse(ev->serialize());
    row.attested =
        back.has_value() && verify_evidence(*back, v.attest_pub(), nonce);
  }
  if (!row.attested) ++row.violations;
  return row;
}

// --- Part B: measurement gate + boot-time budget -----------------------------

int run_measurement_gate(std::uint64_t seed, std::string* summary) {
  TrustAnchors t(seed);
  Vehicle v(t, 0xB7);
  // Tamper with the stored BOOT_MAC: re-bootstrap over a different image.
  v.she.autonomous_bootstrap(patterned(512, 0x99));
  const BootChain::Report rep = v.chain->run();

  int violations = 0;
  // SHE semantics: the chain still boots the (signature-valid) app...
  if (rep.hung || rep.mode != BootMode::kNormal) ++violations;
  // ...but the measurement fails and boot-protected keys stay locked.
  if (rep.measured_ok || rep.keys_unlocked) ++violations;
  if (v.secoc_usable()) ++violations;  // the SecOC key must be dark
  if (v.svc.state() != CryptoService::State::kFailedBoot) ++violations;
  // The unprotected attestation key still reports the failure, verifiably.
  const Bytes nonce = util::from_string("gate-nonce");
  const auto ev = v.chain->attest(nonce);
  const bool attested = ev && !ev->measured_ok &&
                        verify_evidence(*ev, v.attest_pub(), nonce);
  if (!attested) ++violations;
  *summary = std::string("mode=") + ecu::boot_mode_name(rep.mode) +
             " measured=" + (rep.measured_ok ? "true" : "false") +
             " keys_locked=" + (v.secoc_usable() ? "NO" : "yes") +
             " attested_failure=" + (attested ? "yes" : "NO");
  return violations;
}

struct BudgetRow {
  std::size_t app_kib = 0;
  double boot_us = 0.0;
  double flash_scan_us = 0.0;
  double kv_scan_us = 0.0;
};

BudgetRow run_budget(std::uint64_t seed, std::size_t app_pages) {
  TrustAnchors t(seed);
  t.v1 = FirmwareImage{"vecu-fw", 1, patterned(app_pages * Flash::kPageSize,
                                               0x11)};
  t.sig_v1 = t.oem.sign_digest(t.v1.digest()).to_bytes();
  Vehicle v(t, 0xC3);
  const BootChain::Report rep = v.chain->run();
  BudgetRow row;
  row.app_kib = app_pages * Flash::kPageSize / 1024;
  row.boot_us = rep.boot_us;
  row.flash_scan_us = rep.flash.scan_us;
  row.kv_scan_us = rep.kv.scan_us;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  bool& smoke = benchutil::smoke;
  if (const int rc = benchutil::parse_args(
          argc, argv, {{"--seed", &seed}, {"--smoke", &smoke}})) {
    return rc;
  }

  std::printf("E23: measured boot chain + power-cut-survivable provisioning\n");
  std::printf("(seed %llu; invariants: never bricked, keys unlock iff "
              "measured, kv transactions atomic)\n\n",
              static_cast<unsigned long long>(seed));

  int violations = 0;
  const TrustAnchors trust(seed);

  // Part A — exhaustive shared-rail power-cut sweep.
  benchutil::Table sweep_table({"cut_op", "phase", "mode", "measured", "keys",
                                "kv", "converged", "attested", "boot_us",
                                "violations"});
  std::vector<SweepRow> sweep;
  for (std::int64_t k = 0;; ++k) {
    SweepRow row = run_cut(k, seed, trust);
    const bool done = !row.cut;  // this k is past the last write op
    if (done) row.cut_op = -1;
    sweep.push_back(row);
    violations += row.violations;
    sweep_table.add_row({done ? "none" : std::to_string(row.cut_op), row.phase,
                         row.mode, row.measured ? "yes" : "NO",
                         row.keys ? "unlocked" : "LOCKED", row.kv_state,
                         row.converged ? "yes" : "NO",
                         row.attested ? "yes" : "NO",
                         benchutil::fmt("%.1f", row.recovery_boot_us),
                         std::to_string(row.violations)});
    if (done) break;
  }
  std::printf("Part A: exhaustive power-cut sweep (%zu write ops: kv push + "
              "stage + activate + commit)\n",
              sweep.size() - 1);
  sweep_table.print();
  std::printf("\n");

  // Part B — measurement gate + boot-time budget.
  std::string gate;
  violations += run_measurement_gate(seed, &gate);
  std::printf("Part B: measurement gate (tampered BOOT_MAC): %s\n\n",
              gate.c_str());

  const std::vector<std::size_t> page_counts =
      smoke ? std::vector<std::size_t>{2, 8} : std::vector<std::size_t>{2, 8,
                                                                        32, 64};
  benchutil::Table budget_table(
      {"app_kib", "boot_us", "flash_scan_us", "kv_scan_us"});
  std::vector<BudgetRow> budget;
  for (const std::size_t pages : page_counts) {
    budget.push_back(run_budget(seed, pages));
    const BudgetRow& r = budget.back();
    budget_table.add_row({benchutil::fmt_u(r.app_kib),
                          benchutil::fmt("%.1f", r.boot_us),
                          benchutil::fmt("%.1f", r.flash_scan_us),
                          benchutil::fmt("%.1f", r.kv_scan_us)});
    if (budget.size() > 1 &&
        budget[budget.size() - 2].boot_us >= r.boot_us) {
      ++violations;  // boot time must grow with image size (scan term)
    }
  }
  std::printf("boot-time budget vs image size\n");
  budget_table.print();
  std::printf("\n");

  // Part C — fleet attestation verify.
  const std::size_t fleet = smoke ? 24 : 192;
  std::vector<Bytes> blobs;
  std::vector<crypto::EcdsaPublicKey> pubs;
  std::vector<Bytes> nonces;
  blobs.reserve(fleet);
  for (std::size_t i = 0; i < fleet; ++i) {
    Vehicle v(trust, static_cast<std::uint8_t>(i + 1));
    v.chain->run();
    nonces.push_back(util::from_string("fleet-" + std::to_string(i)));
    const auto ev = v.chain->attest(nonces.back());
    if (!ev) {
      ++violations;
      continue;
    }
    blobs.push_back(ev->serialize());
    pubs.push_back(v.attest_pub());
  }
  std::size_t verified = 0;
  crypto::VerifyEngine engine;
  const double wall0 = benchutil::wall_seconds();
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto ev = AttestationEvidence::parse(blobs[i]);
    if (ev && verify_evidence(*ev, pubs[i], nonces[i], &engine)) ++verified;
  }
  const double secs = benchutil::wall_seconds() - wall0;
  if (verified != fleet) ++violations;

  // Forgeries: replayed nonce, flipped verdict, truncated blob.
  std::size_t rejected = 0;
  if (!blobs.empty()) {
    const auto ev = AttestationEvidence::parse(blobs[0]);
    if (!verify_evidence(*ev, pubs[0], util::from_string("stale"), &engine)) {
      ++rejected;
    }
    AttestationEvidence forged = *ev;
    forged.measured_ok = !forged.measured_ok;
    if (!verify_evidence(forged, pubs[0], nonces[0], &engine)) ++rejected;
    if (!AttestationEvidence::parse(
             util::BytesView(blobs[0].data(), blobs[0].size() - 1))) {
      ++rejected;
    }
  }
  if (rejected != 3) ++violations;

  std::printf("Part C: fleet attestation: fleet=%zu verified=%zu "
              "forgeries_rejected=%zu/3 evidence_bytes=%zu\n",
              fleet, verified, rejected,
              blobs.empty() ? 0 : blobs[0].size());
  benchutil::Table throughput({{"verify_evidence_per_s", benchutil::host}});
  throughput.add_row({benchutil::fmt("%.0f", secs > 0 ? static_cast<double>(verified) / secs
                                                      : 0.0)});
  throughput.print();
  std::printf("\n");

  // Deterministic JSON report (`ctest -R determinism` compares two seeded runs).
  std::string json = "{\"experiment\":\"e23_boot_attest\",\"seed\":" +
                     std::to_string(seed) + ",\"sweep\":[";
  char buf[320];
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"cut_op\":%lld,\"phase\":\"%s\",\"mode\":\"%s\","
                  "\"measured\":%s,\"keys\":%s,\"kv\":\"%s\","
                  "\"converged\":%s,\"attested\":%s,\"boot_us\":%.1f,"
                  "\"violations\":%d}",
                  i ? "," : "", static_cast<long long>(r.cut_op),
                  r.phase.c_str(), r.mode.c_str(),
                  r.measured ? "true" : "false", r.keys ? "true" : "false",
                  r.kv_state.c_str(), r.converged ? "true" : "false",
                  r.attested ? "true" : "false", r.recovery_boot_us,
                  r.violations);
    json += buf;
  }
  json += "],\"budget\":[";
  for (std::size_t i = 0; i < budget.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"app_kib\":%zu,\"boot_us\":%.1f,\"flash_scan_us\":%.1f,"
                  "\"kv_scan_us\":%.1f}",
                  i ? "," : "", budget[i].app_kib, budget[i].boot_us,
                  budget[i].flash_scan_us, budget[i].kv_scan_us);
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"attest\":{\"fleet\":%zu,\"verified\":%zu,"
                "\"forgeries_rejected\":%zu},\"violations\":%d}",
                fleet, verified, rejected, violations);
  json += buf;
  std::printf("%s\n", json.c_str());

  return benchutil::exit_status(violations);
}
