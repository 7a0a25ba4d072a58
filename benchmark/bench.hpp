#pragma once
// Shared pieces of the benchmark driver: the workload interface, the metric
// record, host clocks and small statistics helpers.
//
// A workload is built (its set-up) by `make_workload`, then advanced one
// fixed-size window of simulated work at a time. Everything a workload
// reports about its simulation — counters, digests, sim-time latencies — is a
// pure function of (workload, seed, windows run); host time is measured only
// by the driver around `run_window` and by the workload's optional per-call
// timers, which never feed back into the simulation.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// Monotonic wall seconds (steady_clock).
double wall_now();
/// Process CPU seconds over all threads (CLOCK_PROCESS_CPUTIME_ID).
double cpu_now();

/// One named figure. `n` is the sample count behind it: windows for a host
/// median, samples for a percentile, 1 for a count.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t n = 1;
};

/// Cumulative, deterministic simulation counters keyed by per-layer metric
/// name (see driver.cpp for how each becomes a reported metric).
using Counters = std::map<std::string, double>;

/// The workload's own operations so far and any broken invariant.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // empty = every output checked out
};

/// Full size is what a benchmark run measures; toy size is the `--check`
/// smoke that must finish all workloads in seconds.
enum class Size { kFull, kToy };

class Workload {
 public:
  virtual ~Workload() = default;

  /// Advances one fixed-size window of simulated work.
  virtual void run_window() = 0;
  /// Vehicle-sim-seconds one window simulates (vehicles x window length).
  virtual double window_veh_sim_s() const = 0;
  /// Windows in the fixed prefix after which the digest, the sim-time
  /// metrics and the traced counts are taken.
  virtual int digest_windows() const = 0;
  /// Worker threads the workload runs on.
  virtual unsigned threads() const { return 1; }

  /// Turns the per-call host timers around layer calls on or off.
  virtual void set_tracing(bool on) { (void)on; }
  /// Host seconds spent inside timed layer calls so far, keyed by the
  /// per-layer share metric they feed (e.g. "ids.busy_share").
  virtual Counters busy_s() const { return {}; }

  /// Cumulative simulation counters read from public accessors.
  virtual Counters counters() const = 0;
  /// Canonical text of the simulated state so far; no wall-clock content.
  virtual std::string digest() const = 0;
  /// Sim-time end-to-end metrics over the windows run so far.
  virtual std::vector<Metric> sim_metrics() const { return {}; }
  virtual Outcome outcome() const = 0;
};

const std::vector<std::string>& workload_names();
/// Builds `name` at `size` from `seed`; this is the workload's set-up.
/// `threads` = 0 picks the workload's default. Throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size,
                                        unsigned threads = 0);

std::unique_ptr<Workload> make_metro(std::uint64_t seed, bool churn, Size size,
                                     unsigned threads);
std::unique_ptr<Workload> make_vehicle_path(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_ota_fleet(std::uint64_t seed, Size size);

/// Unit-cost probes of layer primitives on inputs derived from `seed`
/// (host ns per call, median of several timed batches).
std::vector<Metric> run_probes(std::uint64_t seed);

std::uint64_t fnv1a(std::string_view s);
std::string hex64(std::uint64_t v);
/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]; 0 when empty.
double percentile(std::vector<double> v, double p);
/// Shortest text that reads back as exactly `v`.
std::string json_number(double v);

/// Accumulates host seconds spent in calls wrapped by `time`, only while
/// enabled; disabled, a wrapped call costs one branch.
class CallTimer {
 public:
  void set_enabled(bool on) { on_ = on; }
  template <typename F>
  decltype(auto) time(F&& f) {
    if (!on_) return f();
    const Stop stop{*this, wall_now()};
    return f();
  }
  double seconds() const { return s_; }

 private:
  struct Stop {
    CallTimer& t;
    double t0;
    ~Stop() { t.s_ += wall_now() - t0; }
  };
  bool on_ = false;
  double s_ = 0;
};

}  // namespace bench
