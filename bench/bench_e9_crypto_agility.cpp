// Experiment E9 — crypto agility: in-field algorithm migration cost
// (paper §5 "Long In-field Lifetime": crypto assurance horizons of 5-7
// years vs 15-year vehicle life).
//
// Scenario: year 6, the fleet must move all onboard authentication off
// suite A (weakened) to suite B. Compare:
//  (a) policy-driven migration (this library's extensible architecture):
//      one signed policy document per vehicle, applied at next ignition;
//  (b) fixed-function firmware: every ECU that embeds the algorithm needs
//      a full OTA firmware campaign (download + flash + reboot + self-test).
// We model per-vehicle costs and fleet exposure time, and measure the
// runtime overhead the suite indirection costs on every message (process
// CPU per op, minimum of 5 passes of 1e5 ops).

#include <cstdio>

#include "bench_util.hpp"
#include "core/layers.hpp"
#include "ecu/flash.hpp"

using namespace aseck;
using util::Bytes;

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E9: in-field crypto migration — policy-driven vs firmware\n\n");

  // --- per-vehicle migration cost model ------------------------------------
  // Policy path: download 2 KiB signed policy + verify (1 ECDSA) + apply.
  // Firmware path: per affected ECU: download image, flash write, reboot,
  // self-test. 12 of ~40 ECUs embed the MAC algorithm in fixed code.
  const double policy_bytes = 2048;
  const double fw_bytes_per_ecu = 512.0 * 1024;
  const int ecus_affected = 12;
  const double link_bps = 1e6;            // telematics downlink
  const double flash_us_per_ecu = ecu::Flash::write_latency_us(
      static_cast<std::size_t>(fw_bytes_per_ecu));
  const double reboot_s_per_ecu = 15.0;
  const double selftest_s_per_ecu = 30.0;

  const double policy_vehicle_s = policy_bytes * 8 / link_bps + 0.5 /*verify+apply*/;
  const double fw_vehicle_s =
      ecus_affected * (fw_bytes_per_ecu * 8 / link_bps +
                       flash_us_per_ecu / 1e6 + reboot_s_per_ecu +
                       selftest_s_per_ecu);

  // Fleet rollout: 1M vehicles, 2% daily connect rate for policy pushes;
  // firmware campaigns are staged at 0.5% daily (dealer/backoff limits).
  const double fleet = 1e6;
  const double policy_days = 1.0 / 0.02;   // 98% coverage in ~50 days -> use
  const double fw_days = 1.0 / 0.005;      // characteristic time constants

  benchutil::Table table({"migration_path", "per_vehicle_time",
                          "downtime/vehicle", "fleet_1/e_time_days",
                          "campaign_risk"});
  table.add_row({"policy update (extensible)",
                 benchutil::fmt("%.1f s", policy_vehicle_s), "none (hot apply)",
                 benchutil::fmt("%.0f", policy_days),
                 "low: config only, rollback = old policy"});
  table.add_row({"firmware redeploy (fixed-function)",
                 benchutil::fmt("%.0f s", fw_vehicle_s),
                 benchutil::fmt("%.0f s", ecus_affected * (reboot_s_per_ecu +
                                                           selftest_s_per_ecu)),
                 benchutil::fmt("%.0f", fw_days),
                 "high: 12 ECU images, brick/rollback risk"});
  table.print();
  std::printf("(fleet size %.0fk vehicles)\n", fleet / 1000);

  // --- runtime cost of the suite indirection --------------------------------
  std::printf("\nRuntime cost of the registry indirection (1e5 MAC ops):\n\n");
  benchutil::Table rt({"suite", {"tag_us_per_op", benchutil::host},
                       {"verify_us_per_op", benchutil::host}, "relative_cost"});
  core::SuiteRegistry reg = core::SuiteRegistry::with_builtins();
  const Bytes key(16, 0x42);
  const Bytes msg(32, 0xAB);
  for (const auto& name : reg.names()) {
    const auto suite = reg.create(name, key, 8);
    const int n = 100000;
    Bytes tag;
    const auto [tag_s, verify_s] = benchutil::time_min_of(
        5,
        [&] {
          for (int i = 0; i < n; ++i) tag = suite->tag(msg);
        },
        [&] {
          for (int i = 0; i < n; ++i) {
            volatile bool ok = suite->verify(msg, tag);
            (void)ok;
          }
        });
    const double tag_us = tag_s * 1e6 / n;
    const double ver_us = verify_s * 1e6 / n;
    rt.add_row({name, benchutil::fmt("%.2f", tag_us),
                benchutil::fmt("%.2f", ver_us),
                benchutil::fmt("%.1fx", suite->cost_factor())});
  }
  rt.print();

  // --- migration correctness demo -------------------------------------------
  core::LayerManager mgr;
  core::SecurityPolicy p1;
  p1.version = 1;
  p1.values[core::keys::kSecocSuite] =
      core::PolicyValue(std::string("cmac-aes128"));
  mgr.apply(p1);
  auto old_suite = mgr.make_mac_suite(key);
  core::SecurityPolicy p2 = p1;
  p2.version = 2;
  p2.values[core::keys::kSecocSuite] =
      core::PolicyValue(std::string("hmac-sha256"));
  mgr.apply(p2);
  auto new_suite = mgr.make_mac_suite(key);
  std::printf("\nmigration cutover: old suite '%s' -> new suite '%s'; old tags "
              "verify under new suite: %s\n",
              old_suite->name().c_str(), new_suite->name().c_str(),
              new_suite->verify(msg, old_suite->tag(msg)) ? "YES (bug)"
                                                          : "no (clean)");
  std::printf(
      "\nReading: the extensible path migrates a vehicle ~%.0fx faster with\n"
      "no reboot window, at a ~2x per-message cost only when the heavier\n"
      "suite is selected — the indirection itself is a virtual call.\n",
      fw_vehicle_s / policy_vehicle_s);
  return 0;
}
