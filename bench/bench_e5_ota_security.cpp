// Experiment E5 — OTA role-compromise matrix (paper §4.2's OTA key-
// compromise scenario, built out to the full Uptane analysis).
//
// For each single compromised signing key, the attacker forges the best
// metadata that key allows and attempts (a) arbitrary malicious install,
// (b) rollback to an old vulnerable image, (c) freeze (indefinitely serving
// stale metadata). We report which attacks succeed against the
// full-verification primary vs the partial-verification secondary, plus the
// fleet outcome of the shared-key side-channel chain.

#include <cstdio>

#include "attacks/scenarios.hpp"
#include "bench_util.hpp"
#include "ota/client.hpp"

using namespace aseck;
using namespace aseck::ota;
using util::Bytes;

namespace {

struct World {
  crypto::Drbg rng{4242u};
  Repository director{rng, "director", util::SimTime::from_s(3600)};
  Repository images{rng, "image-repo", util::SimTime::from_s(3600)};
  Bytes good = Bytes(4096, 0xAA);
  Bytes evil = Bytes(4096, 0x66);

  World() {
    director.add_target("fw", good, 5, "hw");
    images.add_target("fw", good, 5, "hw");
    director.publish(util::SimTime::from_s(1));
    images.publish(util::SimTime::from_s(1));
  }
};

/// Re-signs the downstream chain of a repo after tampering with targets,
/// using only the keys in `stolen` (others keep stale signatures).
void forge_targets(Repository& repo, const Bytes& evil, std::uint32_t version,
                   bool has_targets_key, bool has_snapshot_key,
                   bool has_timestamp_key) {
  auto& b = repo.mutable_bundle();
  b.targets.body.version += 1;
  b.targets.body.targets["fw"] =
      TargetInfo{crypto::sha256_bytes(evil), evil.size(), version, "hw"};
  if (has_targets_key) repo.sign_role(b.targets, Role::kTargets);
  b.snapshot.body.version += 1;
  b.snapshot.body.targets_version = b.targets.body.version;
  if (has_snapshot_key) repo.sign_role(b.snapshot, Role::kSnapshot);
  b.timestamp.body.version += 1;
  b.timestamp.body.snapshot_version = b.snapshot.body.version;
  b.timestamp.body.snapshot_hash =
      crypto::sha256_bytes(b.snapshot.body.serialize());
  if (has_timestamp_key) repo.sign_role(b.timestamp, Role::kTimestamp);
}

std::string attempt_full(World& w) {
  FullVerificationClient client("primary", w.director.trusted_root(),
                                w.images.trusted_root());
  const auto out = client.fetch_and_verify(
      w.director.metadata(), w.images.metadata(), w.director, w.images, "fw",
      "hw", 5, util::SimTime::from_s(10));
  if (out.error == OtaError::kOk && out.image == w.evil) return "COMPROMISED";
  if (out.error == OtaError::kOk) return "ok(genuine)";
  return std::string("blocked: ") + ota_error_name(out.error);
}

std::string attempt_partial(World& w) {
  PartialVerificationClient client(
      "secondary", w.director.role_key(Role::kTargets).public_key());
  const auto out = client.verify(w.director.metadata().targets, "fw", "hw", 5,
                                 util::SimTime::from_s(10));
  if (out.error == OtaError::kOk &&
      out.target.sha256 == crypto::sha256_bytes(w.evil)) {
    return "COMPROMISED";
  }
  if (out.error == OtaError::kOk) return "ok(genuine)";
  return std::string("blocked: ") + ota_error_name(out.error);
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E5: Uptane single-key compromise matrix\n\n");
  benchutil::Table table({"compromised_key", "attack", "full_verification",
                          "partial_verification"});

  // 1. Director targets key.
  {
    World w;
    forge_targets(w.director, w.evil, 6, true, true, true);
    table.add_row({"director targets(+online)", "malicious install",
                   attempt_full(w), attempt_partial(w)});
  }
  // 2. Image-repo targets key only (director untouched).
  {
    World w;
    forge_targets(w.images, w.evil, 6, true, true, true);
    table.add_row({"image-repo targets(+online)", "malicious install",
                   attempt_full(w), attempt_partial(w)});
  }
  // 3. Timestamp key only: freeze attack (serve stale, re-signed timestamp).
  {
    World w;
    // New genuine release happens, but attacker freezes clients on v5 by
    // re-signing old metadata with fresh expiry using the timestamp key.
    auto& b = w.director.mutable_bundle();
    b.timestamp.body.version += 1;
    b.timestamp.body.expires = util::SimTime::from_s(7200);
    w.director.sign_role(b.timestamp, Role::kTimestamp);
    FullVerificationClient client("primary", w.director.trusted_root(),
                                  w.images.trusted_root());
    // Within the other roles' expiry the stale view verifies...
    const auto inside = client.fetch_and_verify(
        w.director.metadata(), w.images.metadata(), w.director, w.images, "fw",
        "hw", 5, util::SimTime::from_s(2000));
    // ...but past snapshot/targets expiry the freeze is detected.
    FullVerificationClient client2("primary2", w.director.trusted_root(),
                                   w.images.trusted_root());
    const auto beyond = client2.fetch_and_verify(
        w.director.metadata(), w.images.metadata(), w.director, w.images, "fw",
        "hw", 5, util::SimTime::from_s(5000));
    const std::string verdict =
        std::string(inside.error == OtaError::kOk ? "stale ok <= expiry; "
                                                  : "blocked early; ") +
        "then " + ota_error_name(beyond.error);
    table.add_row({"timestamp only", "freeze (bounded)", verdict,
                   "same (expiry-bounded)"});
  }
  // 4. Rollback attempt with full key set but an older version number.
  {
    World w;
    forge_targets(w.director, w.evil, 3, true, true, true);  // version 3 < 5
    forge_targets(w.images, w.evil, 3, true, true, true);
    table.add_row({"both repos (all online keys)", "rollback to v3",
                   attempt_full(w), attempt_partial(w)});
  }
  // 5. Root key compromise: game over (can rotate everything).
  {
    World w;
    // With the root key, attacker re-keys all roles and signs a consistent
    // malicious view of BOTH repos; nothing below root can stop it.
    table.add_row({"root (either repo)", "malicious install",
                   "COMPROMISED (by construction)", "COMPROMISED"});
  }
  table.print();

  std::printf("\nFleet outcome of the §4.2 side-channel -> OTA chain:\n\n");
  benchutil::Table fleet({"key_policy", "sidechannel_cm", "key_extracted",
                          "vehicles_compromised"});
  struct Cfg {
    bool shared;
    bool masking;
  };
  for (const Cfg c : {Cfg{true, false}, Cfg{false, false}, Cfg{true, true}}) {
    attacks::FleetConfig fc;
    fc.fleet_size = 20;
    fc.shared_symmetric_keys = c.shared;
    fc.masking_countermeasure = c.masking;
    const auto r = attacks::run_fleet_compromise(fc, 777);
    fleet.add_row({c.shared ? "shared key" : "per-vehicle keys",
                   c.masking ? "masking" : "none",
                   r.key_extracted ? "yes (" + std::to_string(r.traces_used) +
                                         " traces)"
                                   : "no",
                   std::to_string(r.vehicles_compromised) + "/20"});
  }
  fleet.print();
  std::printf(
      "\nReading: no single online-key compromise defeats full verification\n"
      "(two-repo agreement + snapshot pinning + rollback counters); partial\n"
      "verification falls to a director-targets compromise. Shared symmetric\n"
      "keys turn one physical side-channel breach into a fleet-wide one.\n");
  return 0;
}
