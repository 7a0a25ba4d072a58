// Benchmark driver: runs one named workload per process and reports its
// end-to-end metrics (untraced run) or its per-layer metrics (traced run).
//
//   bench_driver --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//   bench_driver --check
//
// Timing protocol. Set-up — building the workload, including its warm-up to
// the first timed window — runs at least 3 times from scratch; setup_s is
// the median (the first one is timed from main entry). The timed part then runs
// fixed-size windows of simulated work until `--seconds` of wall time have
// passed, and at least the workload's digest prefix of D windows; each
// window's wall time (steady_clock) and process CPU time
// (CLOCK_PROCESS_CPUTIME_ID) are taken, and end-to-end figures are window
// medians. The digest, the sim-time metrics and peak RSS are taken after
// exactly D windows, so they do not depend on how fast the host ran.
//
// A traced run (--trace 1) turns the per-call timers on for the D prefix
// windows, whose per-layer counts and busy shares it reports; it then
// alternates untraced and traced windows until `--seconds` are up to measure
// the tracing overhead, and finally runs the unit-cost probes.
//
// Output: a human-readable table, one JSON record line per metric, and as
// the last line one JSON object {correct, attempted, failed, metrics}. The
// exit code is non-zero when an invariant fails or a run cannot be made.
// --check runs every workload at toy size and asserts its invariants plus
// digest identity across thread counts and repeated in-process runs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_GIT_SHA
#define BENCH_GIT_SHA "unknown"
#endif
#ifndef BENCH_COMPILER
#define BENCH_COMPILER "unknown"
#endif

namespace bench {
namespace {

// Set-up repeats at least 3 times and, when it is short, until 2 s of it have
// been measured (at most 15 times), so a brief hiccup cannot set the median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool check = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        o.trace = argv[++i][0] == '1';
      }
    } else if (a == "--check") {
      o.check = true;
    } else {
      return false;
    }
  }
  if (o.check) return true;
  for (const std::string& n : workload_names()) {
    if (n == o.workload) return o.seconds > 0;
  }
  return false;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: across exec it keeps the launcher's peak, which would floor
/// the figure at the size of whatever started the driver.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

struct Windows {
  std::vector<double> wall, cpu;
  void run(Workload& w) {
    const double c0 = cpu_now(), t0 = wall_now();
    w.run_window();
    wall.push_back(wall_now() - t0);
    cpu.push_back(cpu_now() - c0);
  }
  double wall_sum() const { return std::accumulate(wall.begin(), wall.end(), 0.0); }
  double cpu_sum() const { return std::accumulate(cpu.begin(), cpu.end(), 0.0); }
};

double get(const Counters& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0.0 : it->second;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters d = after;
  for (auto& [k, v] : d) v -= get(before, k);
  return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const char* const kDomains[] = {"powertrain", "chassis", "body", "telematics",
                                "infotainment"};

/// Per-layer metrics of a traced run. Counts are deltas over the traced
/// windows; `*_ns` values are probes; `*_share` values are host time inside
/// the timed calls over the traced windows' wall time.
std::vector<Metric> layer_metrics(const Counters& before, const Counters& after,
                                  const Counters& busy, const Windows& traced,
                                  const std::vector<Metric>& probes) {
  const Counters d = delta(after, before);
  const double wall = traced.wall_sum(), cpu = traced.cpu_sum();
  std::vector<Metric> out;
  const auto count = [&](const char* name, const char* unit = "count") {
    out.push_back({name, get(d, name), unit});
  };
  const auto probe = [&](const std::string& name) {
    for (const Metric& p : probes) {
      if (p.name == name) {
        out.push_back(p);
        return p.value;
      }
    }
    throw std::runtime_error("missing probe " + name);
  };
  double busy_total = 0;
  const auto share = [&](const char* name) {
    busy_total += get(busy, name);
    out.push_back({name, ratio(get(busy, name), wall), "ratio",
                   traced.wall.size()});
  };

  count("sim.events");
  count("sim.epochs");
  count("sim.cross_msgs");
  out.push_back({"sim.parallelism", ratio(cpu, wall), "cpu_s/s", traced.wall.size()});
  out.push_back({"sim.host_ns_per_event", ratio(wall * 1e9, get(d, "sim.events")),
                 "ns", static_cast<std::uint64_t>(get(d, "sim.events"))});

  for (const char* n : {"v2x.bsm_tx", "v2x.rx", "v2x.rx_cross", "v2x.lost",
                        "v2x.migrations", "v2x.rotations"}) {
    count(n);
  }
  probe("v2x.verify_spdu_ns");
  share("v2x.busy_share");

  for (const char* n : {"crypto.signs", "crypto.enqueued", "crypto.admit_hits"}) count(n);
  out.push_back({"crypto.admit_hit_ratio",
                 ratio(get(d, "crypto.admit_hits"),
                       get(d, "crypto.admit_hits") + get(d, "crypto.enqueued")),
                 "ratio"});
  for (const char* n : {"crypto.verify.primitive", "crypto.verify.cache_hits",
                        "crypto.verify.batched"}) {
    count(n);
  }
  const double sign = probe("crypto.sign_ns");
  const double derive = probe("crypto.pubkey_derive_ns");
  const double verify = probe("crypto.verify_ns");
  const double batch = probe("crypto.batch_verify_ns_per_sig");
  const double sha = probe("crypto.sha256_ns_per_kib");
  const double batched = get(d, "crypto.verify.batched");
  const double crypto_ns = get(d, "crypto.signs") * sign +
                           get(d, "crypto.key_derives") * derive +
                           batched * batch +
                           (get(d, "crypto.verify.primitive") - batched) * verify +
                           get(d, "crypto.sha256_kib") * sha;
  // Estimated: counts times probed unit costs, over the windows' CPU time.
  out.push_back({"crypto.est_share", ratio(crypto_ns * 1e-9, cpu), "ratio"});

  count("ivn.frames_ok");
  for (const char* dom : kDomains) {
    out.push_back({std::string("ivn.bus_load.") + dom,
                   ratio(get(d, std::string("ivn.busy_ns.") + dom), get(d, "sim.sim_ns")),
                   "ratio"});
  }
  probe("ivn.secoc_protect_ns");
  probe("ivn.secoc_verify_ns");
  count("ivn.secoc_fail");
  share("ivn.secoc_busy_share");

  for (const char* n : {"gateway.frames_seen", "gateway.forwarded",
                        "gateway.dropped.no_route", "gateway.dropped.firewall",
                        "gateway.dropped.rate"}) {
    count(n);
  }

  count("ids.observed");
  count("ids.alerts");
  probe("ids.observe_ns");
  share("ids.busy_share");

  count("ecu.power_losses");
  count("ecu.flash_write_ops");
  count("ecu.resume_bytes_saved", "bytes");
  count("ecu.recovery_us", "sim_us");
  probe("ecu.stage_ns_per_page");

  count("ota.requests");
  count("ota.served");
  count("ota.shed");
  out.push_back({"ota.cache_hit_rate",
                 ratio(get(d, "ota.cache_hits"),
                       get(d, "ota.cache_hits") + get(d, "ota.cache_misses")),
                 "ratio"});
  count("ota.bytes_sent", "bytes");
  count("ota.delta_bytes_saved", "bytes");
  out.push_back({"ota.max_queue_ms", get(after, "ota.max_queue_ms"), "sim_ms"});
  count("ota.fetch_sessions");
  count("ota.updates");
  probe("ota.fetch_metadata_ns");
  probe("ota.client_refresh_ns");
  share("ota.poller_busy_share");

  out.push_back({"residual.share", ratio(wall - busy_total, wall), "ratio",
                 traced.wall.size()});
  return out;
}

void print_results(const Options& o, const Workload& w, const std::string& digest,
                   const std::vector<Metric>& reported,
                   const std::vector<Metric>& extra, const Outcome& outcome) {
  std::printf("%-34s %16s  %-12s %s\n", "metric", "value", "unit", "n");
  for (const auto* list : {&reported, &extra}) {
    for (const Metric& m : *list) {
      std::printf("%-34s %16.6g  %-12s %llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.n));
    }
  }
  for (const std::string& v : outcome.violations) {
    std::printf("INVARIANT FAILED: %s\n", v.c_str());
  }
  for (const auto* list : {&reported, &extra}) {
    for (const Metric& m : *list) {
      std::printf(
          "{\"workload\":\"%s\",\"metric\":\"%s\",\"unit\":\"%s\",\"value\":%s,"
          "\"n\":%llu,\"seed\":%llu,\"threads\":%u,\"trace\":%s,"
          "\"build_type\":\"%s\",\"compiler\":\"%s\",\"git_sha\":\"%s\","
          "\"digest\":\"%s\"}\n",
          o.workload.c_str(), m.name.c_str(), m.unit.c_str(),
          json_number(m.value).c_str(), static_cast<unsigned long long>(m.n),
          static_cast<unsigned long long>(o.seed), w.threads(),
          o.trace ? "true" : "false", BENCH_BUILD_TYPE, BENCH_COMPILER,
          BENCH_GIT_SHA, digest.c_str());
    }
  }
  std::string line = std::string("{\"correct\": ") +
                     (outcome.violations.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    line += (i ? ", \"" : "\"") + reported[i].name + "\": {\"value\": " +
            json_number(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  std::printf("%s}}\n", line.c_str());
}

int run(const Options& o, double t_main) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  while (setup_s.size() < kMinSetups ||
         (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < kSetupSeconds &&
          setup_s.size() < kMaxSetups)) {
    w.reset();  // tear-down is not set-up: free the previous build first
    const double t0 = setup_s.empty() ? t_main : wall_now();
    w = make_workload(o.workload, o.seed, Size::kFull);
    setup_s.push_back(wall_now() - t0);
  }

  const auto prefix = static_cast<std::size_t>(w->digest_windows());
  std::string digest;
  std::vector<Metric> sim;
  double rss_mb = 0;
  const auto at_prefix_end = [&] {
    digest = hex64(fnv1a(w->digest()));
    sim = w->sim_metrics();
    rss_mb = peak_rss_mb();
  };
  const double t_run = wall_now();
  const auto time_left = [&] { return wall_now() - t_run < o.seconds; };

  Windows traced, untraced, alternate_traced;
  Counters before, after, busy;
  if (o.trace) {
    w->set_tracing(true);
    before = w->counters();
    const Counters busy0 = w->busy_s();
    while (traced.wall.size() < prefix) traced.run(*w);
    after = w->counters();
    busy = delta(w->busy_s(), busy0);
    at_prefix_end();
    // Overhead: alternate untraced and traced windows, so warm-up and host
    // drift fall on both sides alike.
    while (alternate_traced.wall.size() < 3 || time_left()) {
      const bool on = untraced.wall.size() > alternate_traced.wall.size();
      w->set_tracing(on);
      (on ? alternate_traced : untraced).run(*w);
    }
    w->set_tracing(false);
  } else {
    while (untraced.wall.size() < prefix || time_left()) {
      untraced.run(*w);
      if (untraced.wall.size() == prefix) at_prefix_end();
    }
  }

  const Outcome outcome = w->outcome();
  std::vector<Metric> reported;
  if (o.trace) {
    reported = layer_metrics(before, after, busy, traced, run_probes(o.seed));
    reported.push_back({"trace.overhead_ratio",
                        ratio(median(untraced.wall), median(alternate_traced.wall)),
                        "ratio", untraced.wall.size() + alternate_traced.wall.size()});
  } else {
    const auto n = static_cast<std::uint64_t>(untraced.wall.size());
    reported = {
        {"veh_sim_s_per_s", w->window_veh_sim_s() / median(untraced.wall), "veh_sim_s/s", n},
        {"veh_sim_s_per_cpu_s", w->window_veh_sim_s() / median(untraced.cpu),
         "veh_sim_s/cpu_s", n},
        {"peak_rss_mb", rss_mb, "MiB", 1},
        {"setup_s", median(setup_s), "s", setup_s.size()},
    };
  }
  print_results(o, *w, digest, reported, sim, outcome);
  return outcome.violations.empty() ? 0 : 1;
}

/// Toy-size invariants for every workload; prints one line per check.
int run_check() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const auto windows = [](Workload& w, int n) {
    for (int k = 0; k < n; ++k) w.run_window();
  };
  for (const std::string& name : workload_names()) {
    const bool metro = name.rfind("metro", 0) == 0;
    // Metro: 1 thread vs 2 threads. Others: two in-process runs.
    auto a = make_workload(name, 42, Size::kToy, 1);
    auto b = make_workload(name, 42, Size::kToy, metro ? 2 : 1);
    auto c = make_workload(name, 43, Size::kToy, 1);
    windows(*a, 2);
    windows(*b, 2);
    windows(*c, 2);
    const std::string da = a->digest();
    expect(da == b->digest(),
           name + (metro ? ": digest identical at 1 and 2 threads"
                         : ": digest identical across two runs"));
    expect(da != c->digest(), name + ": digest depends on the seed");
    for (const Workload* w : {a.get(), b.get(), c.get()}) {
      const Outcome o = w->outcome();
      std::string why;
      for (const std::string& v : o.violations) why += " [" + v + "]";
      expect(o.violations.empty() && o.failed == 0 && o.attempted > 0,
             name + ": invariants hold (" + std::to_string(o.attempted) +
                 " attempted)" + why);
    }
  }
  bool timed = true;
  for (const Metric& p : run_probes(42)) timed = timed && p.value > 0;
  expect(timed, "probes: every unit cost measured");
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "OK", failures);
  return failures ? 1 : 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  const double t_main = bench::wall_now();
  bench::Options o;
  if (!bench::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <metro_churn|metro_steady|vehicle_path|"
                 "ota_fleet> [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       %s --check\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    return o.check ? bench::run_check() : bench::run(o, t_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_driver: %s\n", e.what());
    return 1;
  }
}
