// Experiment E12 — the verification burden of extensibility (paper §5
// "Verification Needs" and §6's extensibility/verification trade-off).
//
// A security architecture's configuration space grows multiplicatively with
// every extensible parameter ("reserved for future use" included). We grow
// a realistic parameter set and compare verification campaign sizes:
// exhaustive, pairwise covering arrays, and the extensibility-aware
// reduction where architecturally isolated parameters verify in isolation.

#include <cstdio>

#include "bench_util.hpp"
#include "core/verification.hpp"

using namespace aseck::core;

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E12: verification campaign size vs configuration-space growth\n\n");

  // The full parameter set of this library's security stack. `reducible`
  // marks parameters whose effects are isolated by the layered architecture
  // (compositional verification argument holds).
  const std::vector<ConfigParam> all_params{
      {"secoc_mac_len", 5, false},      {"secoc_freshness", 3, false},
      {"mac_suite", 2, false},          {"gateway_policy", 4, false},
      {"rate_limit_tier", 3, true},     {"ids_sensitivity", 3, true},
      {"v2x_verify_mode", 3, false},    {"pseudonym_policy", 3, true},
      {"pkes_bounding", 2, true},       {"boot_chain_mode", 2, false},
      {"debug_lock", 2, true},          {"reserved_future_a", 4, true},
      {"reserved_future_b", 4, true},
  };

  benchutil::Table table({"params", "exhaustive", "pairwise_rows",
                          "pairwise_valid", "reduced",
                          {"pairwise_gen_ms", benchutil::host}});
  for (std::size_t n = 4; n <= all_params.size(); n += 3) {
    ConfigSpace space;
    for (std::size_t i = 0; i < n; ++i) space.add(all_params[i]);
    const double t0 = benchutil::wall_seconds();
    const auto rows = space.pairwise_array(12345);
    const double gen_ms = (benchutil::wall_seconds() - t0) * 1e3;
    table.add_row(
        {std::to_string(n), benchutil::fmt_u(space.exhaustive_count()),
         benchutil::fmt_u(rows.size()),
         space.covers_all_pairs(rows) ? "yes" : "NO",
         benchutil::fmt_u(space.reduced_count()),
         benchutil::fmt("%.1f", gen_ms)});
  }
  table.print();

  // The §6 point: "reserved for future use" configurations still need
  // verification because unused configurations are attack targets.
  std::printf("\nCost of the two 'reserved-for-future-use' parameters alone:\n\n");
  benchutil::Table rsv({"treatment", "campaign_size"});
  {
    ConfigSpace with_rsv, without_rsv, rsv_crossed;
    for (const auto& p : all_params) {
      with_rsv.add(p);
      if (p.name.rfind("reserved", 0) != 0) without_rsv.add(p);
      ConfigParam q = p;
      if (q.name.rfind("reserved", 0) == 0) q.reducible = false;
      rsv_crossed.add(q);
    }
    rsv.add_row({"ship without reserved params",
                 benchutil::fmt_u(without_rsv.reduced_count())});
    rsv.add_row({"reserved params, isolation argument (reducible)",
                 benchutil::fmt_u(with_rsv.reduced_count())});
    rsv.add_row({"reserved params, no isolation (full cross)",
                 benchutil::fmt_u(rsv_crossed.reduced_count())});
  }
  rsv.print();
  std::printf(
      "\nReading: exhaustive verification explodes past 10^5 configurations\n"
      "with a realistic parameter set; pairwise arrays grow ~log-linearly;\n"
      "the extensibility-aware reduction — possible only when the\n"
      "architecture provides isolation arguments — keeps the campaign\n"
      "near-linear. Without isolation, each reserved-for-future parameter\n"
      "multiplies the campaign (the §6 verification burden).\n");
  return 0;
}
