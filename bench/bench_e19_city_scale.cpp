// Experiment E19 — sharded city-scale V2X simulation (paper §4.2 at metro
// scale: the V2X workload of a whole city, not an intersection).
//
// The single-threaded scheduler tops out near 500 interacting V2X nodes
// (E2); a metropolitan deployment is 100k+ vehicles. E19 runs the
// `v2x::MetroWorld` city model on `sim::ShardedWorld`: the metro area is
// partitioned into radio-range-sized cells, each cell owns a private event
// loop, and cross-cell BSM spill + vehicle migration ride deterministic
// epoch batches (see sim/sharded.hpp for the four-point determinism
// contract).
//
// Reported per thread count: wall time, BSM throughput (msgs/sec of
// simulated radio traffic), vehicle-sim-seconds/sec, cross-shard message
// volume, and speedup vs the 1-thread run. After the sweep: modeled wire
// bytes per vehicle per second, model memory per vehicle, and the crypto
// cost of the real E22 batch pipeline (per-rotation beacon signatures,
// shard-local admitted-cache dedup, RLC batch verification; see
// v2x/citynet.hpp).
//
// Determinism: every run's digest (config, totals, state hash, merged
// metrics; no wall-clock content) must be byte-identical across thread
// counts. The sweep table's same_digest verdict column compares each run
// with the 1-thread reference; exit code = number of failed verdicts.
// `--digest` prints the digest JSON alone, so CI can diff a 1-thread run
// against a 4-thread run byte-for-byte.
//
// Flags: --vehicles N (> 0)  --sim-s S (finite, > 0)  --seed U
//        --threads T (> 0; sweep 1,2,..,T)  --smoke (small preset)
//        --digest (digest JSON only, no timing)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "v2x/citynet.hpp"

using namespace aseck;
using util::SimTime;

namespace {

v2x::MetroConfig make_config(std::size_t vehicles, std::uint64_t seed,
                             unsigned threads) {
  v2x::MetroConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.real_crypto = true;
  // Keep metro density (~250 vehicles/km^2) as the fleet scales, so
  // per-vehicle neighborhood load is comparable at every size. Snap to the
  // 500 m shard cell.
  const double side =
      std::sqrt(static_cast<double>(vehicles) / 100000.0) * 20000.0;
  const double snapped = std::max(1000.0, std::round(side / 500.0) * 500.0);
  cfg.width_m = snapped;
  cfg.height_m = snapped;
  return cfg;
}

struct RunResult {
  unsigned threads = 0;
  double wall_s = 0;
  v2x::MetroWorld::Totals totals;
  std::string digest;
  double bytes_per_vehicle = 0;
  std::uint32_t shards = 0;
};

RunResult run_once(const v2x::MetroConfig& cfg, double sim_s) {
  RunResult r;
  r.threads = cfg.threads;
  v2x::MetroWorld metro(cfg);
  const double wall0 = benchutil::wall_seconds();
  metro.run_until(SimTime::from_seconds_f(sim_s));
  r.wall_s = benchutil::wall_seconds() - wall0;
  r.totals = metro.totals();
  r.digest = metro.digest_json();
  r.bytes_per_vehicle = metro.bytes_per_vehicle();
  r.shards = metro.world().shard_count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t vehicles = 100000;
  double sim_s = 1.0;
  std::uint64_t seed = 42;
  unsigned max_threads = 4;
  bool& smoke = benchutil::smoke;
  bool digest_only = false;
  const std::initializer_list<benchutil::Flag> flags = {
      {"--vehicles", &vehicles}, {"--sim-s", &sim_s}, {"--seed", &seed},
      {"--threads", &max_threads}, {"--smoke", &smoke},
      {"--digest", &digest_only}};
  if (const int rc = benchutil::parse_args(argc, argv, flags)) return rc;
  if (!(sim_s > 0) || vehicles == 0 || max_threads == 0) {
    return benchutil::usage_error(argv[0], flags);
  }
  if (smoke) {
    vehicles = 5000;
    sim_s = 1.0;
  }

  if (digest_only) {
    // One run at exactly --threads; stdout is the digest and nothing else,
    // so CI can diff a 1-thread run against an N-thread run byte-for-byte.
    const RunResult r = run_once(make_config(vehicles, seed, max_threads), sim_s);
    std::printf("%s\n", r.digest.c_str());
    return 0;
  }

  std::printf(
      "E19 — sharded city-scale V2X: %zu vehicles, %.1f sim-s, seed %llu\n\n",
      vehicles, sim_s, static_cast<unsigned long long>(seed));

  std::vector<unsigned> sweep{1};
  for (unsigned t = 2; t <= max_threads; t *= 2) sweep.push_back(t);
  if (sweep.back() != max_threads) sweep.push_back(max_threads);

  benchutil::Table table({"threads", {"wall_s", benchutil::host},
                          {"bsm_msgs/s", benchutil::host}, {"veh_sim_s/s", benchutil::host},
                          "cross_msgs", {"speedup", benchutil::host},
                          {"same_digest", benchutil::verdict}});
  std::vector<RunResult> results;
  for (unsigned t : sweep) {
    const RunResult r = run_once(make_config(vehicles, seed, t), sim_s);
    const double msgs =
        static_cast<double>(r.totals.bsm_tx + r.totals.rx + r.totals.lost);
    table.add_row({std::to_string(t), benchutil::fmt("%.2f", r.wall_s),
               benchutil::fmt_u(static_cast<std::uint64_t>(msgs / r.wall_s)),
               benchutil::fmt_u(static_cast<std::uint64_t>(
                   static_cast<double>(vehicles) * sim_s / r.wall_s)),
               benchutil::fmt_u(r.totals.cross_msgs),
               benchutil::fmt("%.2fx", results.empty()
                                           ? 1.0
                                           : results.front().wall_s / r.wall_s),
               results.empty() || r.digest == results.front().digest});
    results.push_back(r);
  }
  table.print();

  const RunResult& ref = results.front();
  const double sim_seconds = sim_s;
  std::printf("\nworkload: %u shards, %llu BSM tx, %llu receptions "
              "(%llu cross-shard), %llu lost, %llu migrations, %llu "
              "pseudonym rotations\n",
              ref.shards, static_cast<unsigned long long>(ref.totals.bsm_tx),
              static_cast<unsigned long long>(ref.totals.rx),
              static_cast<unsigned long long>(ref.totals.rx_cross),
              static_cast<unsigned long long>(ref.totals.lost),
              static_cast<unsigned long long>(ref.totals.migrations),
              static_cast<unsigned long long>(ref.totals.rotations));
  std::printf("wire load: %.1f bytes/vehicle/sim-s tx\n",
              static_cast<double>(ref.totals.bytes_tx) /
                  static_cast<double>(vehicles) / sim_seconds);
  std::printf("model memory: %.1f bytes/vehicle\n", ref.bytes_per_vehicle);
  // Real E22 pipeline: genuine P-256 signatures were produced and
  // batch-verified. The amortization line is the whole O2 story — without
  // the admitted-cache + batch kernel every reception would pay a full
  // verify, with them only the first reception per (sender, rotation) per
  // shard does.
  const std::uint64_t checks = ref.totals.admit_hits + ref.totals.verify_enqueued;
  std::printf("real crypto: %llu beacon signatures, %llu batch-verified "
              "beacons, %llu admitted-cache hits (%llu failures)\n",
              static_cast<unsigned long long>(ref.totals.beacon_signs),
              static_cast<unsigned long long>(ref.totals.verify_enqueued),
              static_cast<unsigned long long>(ref.totals.admit_hits),
              static_cast<unsigned long long>(ref.totals.verify_fail));
  std::printf("amortization: %.1f signature checks amortized per real "
              "verify (%.3f verifies/reception vs 1.0 unbatched)\n",
              checks ? static_cast<double>(checks) /
                           static_cast<double>(ref.totals.verify_enqueued)
                     : 0.0,
              ref.totals.rx ? static_cast<double>(ref.totals.verify_enqueued) /
                                  static_cast<double>(ref.totals.rx)
                            : 0.0);
  const std::size_t mismatches = table.failed();
  std::printf("\ndeterminism: %zu digest mismatch(es) across %zu thread "
              "counts (state hash %s)\n",
              mismatches, sweep.size(),
              mismatches == 0 ? "byte-identical" : "DIVERGED");
  return benchutil::exit_status(mismatches);
}
