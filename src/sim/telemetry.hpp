#pragma once
// Unified telemetry core: one ordered event stream (TraceBus) plus a named
// metrics plane (MetricsRegistry) shared by every substrate — CAN, LIN,
// FlexRay, Ethernet, SOME/IP, UDS, the gateway, the IDS, OTA, and V2X.
//
// Rationale (paper §7): the 4+1 assurance architecture's IDS/forensics layer
// needs to correlate security events *across* substrates — a spoofed CAN
// frame, the gateway drop, and the IDS alert are one causal chain, so every
// component records onto one shared stream.
//
// Design points:
//  * Component and kind names are interned to integer TraceIds once; the
//    hot `record` path stores two ints + one detail string instead of three
//    strings, and queries compare ints instead of strings.
//  * Optional bounded ring-buffer mode (`set_capacity`) keeps long campaigns
//    at fixed memory; the newest events win, `evicted()` counts the loss.
//  * The plane is write-only for the model: subscribers tap the stream live
//    for observation (forensics, tests, bench reports), and no model
//    decision reads an event or depends on the bus being enabled. A
//    component that reacts to another reads that component's own state
//    (e.g. the gateway reads its buses' error counts).
//  * `TraceScope` is the per-component handle. A component is built on its
//    plane and stays there: `core::VehiclePlatform` owns the shared instance
//    and constructs everything on it; a component given no plane gets a
//    private one.
//  * MetricsRegistry holds named counters, gauges, and fixed-bucket latency
//    histograms with stable addresses, plus JSON export for the bench suite.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace aseck::sim {

/// Interned name id. 0 = "none"/unknown.
using TraceId = std::uint32_t;

/// One event on the bus. `seq` is globally monotonic: events with smaller
/// seq happened-before events with larger seq (the sim is single-threaded,
/// so record order is causal order).
struct TraceEvent {
  util::SimTime at;
  std::uint64_t seq = 0;
  TraceId component = 0;
  TraceId kind = 0;
  std::string detail;
};

/// Platform-wide ordered event stream with interned names.
class TraceBus {
 public:
  TraceBus();
  TraceBus(const TraceBus&) = delete;
  TraceBus& operator=(const TraceBus&) = delete;

  /// Interns `s`, returning a stable id (idempotent per spelling).
  TraceId intern(std::string_view s);
  /// Resolves without interning; 0 if never seen.
  TraceId lookup(std::string_view s) const;
  /// Spelling of an interned id ("" for 0/unknown).
  const std::string& name(TraceId id) const;
  /// Number of distinct interned names.
  std::size_t interned() const { return names_.size() - 1; }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// 0 = unbounded (default). Otherwise keep only the newest `cap` events
  /// (bounded ring buffer); older events are evicted and counted.
  void set_capacity(std::size_t cap);

  /// Appends an event. Subscribers run synchronously before storage, so a
  /// tap sees every event even in ring mode.
  void record(util::SimTime at, TraceId component, TraceId kind,
              std::string detail = {});
  /// Convenience: interns names on the fly (cold paths).
  void record(util::SimTime at, std::string_view component,
              std::string_view kind, std::string detail = {}) {
    if (!enabled_) return;
    record(at, intern(component), intern(kind), std::move(detail));
  }

  /// Retained events, oldest first (the ring window when bounded).
  std::size_t size() const { return events_.size(); }
  const TraceEvent& event(std::size_t i) const;
  /// Total record() calls accepted (including evicted events).
  std::uint64_t total_recorded() const { return total_recorded_; }
  /// Events lost to ring-buffer eviction.
  std::uint64_t evicted() const { return evicted_; }

  /// Number of retained events matching component and/or kind ("" = any).
  std::size_t count(std::string_view component,
                    std::string_view kind = {}) const;
  /// First (oldest) retained match, or nullptr.
  const TraceEvent* find_first(std::string_view component,
                               std::string_view kind = {}) const;

  /// Live observation tap (forensics, tests, bench reports); returns a token
  /// for unsubscribe.
  using Subscriber = std::function<void(const TraceEvent&)>;
  std::uint64_t subscribe(Subscriber fn);
  void unsubscribe(std::uint64_t token);

  /// Human-readable causally-ordered timeline of retained events, optionally
  /// filtered ("" = any). One line per event: `seq @ time component kind detail`.
  std::string timeline(std::string_view component = {},
                       std::string_view kind = {}) const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool enabled_ = true;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::size_t head_ = 0;      // ring start when bounded & full
  std::vector<TraceEvent> events_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t total_recorded_ = 0;
  std::uint64_t evicted_ = 0;
  std::unordered_map<std::string, TraceId, StringHash, std::equal_to<>> ids_;
  std::vector<const std::string*> names_;  // id -> spelling (map nodes are stable)
  struct Sub {
    std::uint64_t token;
    Subscriber fn;
  };
  std::vector<Sub> subscribers_;
  std::uint64_t next_token_ = 1;
};

// ---------------------------------------------------------------------------
// Metrics

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0;
};

/// Fixed-bucket latency histogram over [lo, hi); out-of-range samples
/// (infinities included) clamp to the edge buckets. Tracks exact
/// count/sum/min/max alongside buckets. NaN samples are never binned; see
/// nan_count().
class LatencyHistogram {
 public:
  LatencyHistogram(double lo, double hi, std::size_t buckets);

  void record(double x);
  std::size_t count() const { return count_; }
  std::size_t nan_count() const { return nan_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }
  std::size_t buckets() const { return counts_.size(); }
  std::size_t bucket_count(std::size_t i) const { return counts_.at(i); }
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const { return bucket_low(i + 1); }
  double low() const { return lo_; }
  double high() const { return hi_; }
  /// Percentile estimated by linear interpolation within buckets; p in [0,100].
  double percentile(double p) const;

  /// Folds `o` into this histogram. Both must share the exact bucket layout
  /// (lo, hi, bucket count) — per-shard registries create instruments from
  /// the same code paths, so layouts match by construction; a mismatch
  /// throws. Merging a stream split across K histograms yields the same
  /// count/sum/min/max/buckets as one histogram that saw every sample
  /// (sums are added in merge order, so merge in a canonical order when
  /// bit-stable output matters).
  void merge_from(const LatencyHistogram& o);

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t count_ = 0;
  std::size_t nan_ = 0;
  double sum_ = 0, min_ = 0, max_ = 0;
};

/// Named metrics with stable addresses. Instruments are created on first
/// access and live for the registry's lifetime, so components may cache the
/// returned references/pointers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First call fixes the bucket layout; later calls return the instrument.
  LatencyHistogram& histogram(std::string_view name, double lo, double hi,
                              std::size_t buckets);

  /// Value of a counter, or 0 if absent (query-side convenience).
  std::uint64_t counter_value(std::string_view name) const;
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const LatencyHistogram* find_histogram(std::string_view name) const;

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic (name-sorted) JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,
  ///  mean,p50,p95,p99}}}. Non-finite values export as null.
  std::string to_json() const;

  /// Merge semantics for sharded telemetry: counters add, gauges add (treat
  /// merged gauges as additive totals), histograms fold bucket-wise via
  /// LatencyHistogram::merge_from (layouts must match). Instruments missing
  /// on this side are created. Merging per-shard registries in ascending
  /// shard id order reproduces, byte-for-byte, the JSON a single registry
  /// would have exported for the same event stream (telemetry_test.cpp).
  void merge_from(const MetricsRegistry& other);

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  using Map = std::unordered_map<std::string, std::unique_ptr<T>, StringHash,
                                 std::equal_to<>>;

  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<LatencyHistogram> histograms_;
};

// ---------------------------------------------------------------------------
// Shared context + per-component handle

/// The shared telemetry plane: one bus + one registry. `core::VehiclePlatform`
/// owns one and constructs every component on it; tests and benches can
/// create their own and pass it to the components they build. A
/// default-constructed Telemetry is a fresh private plane.
struct Telemetry {
  std::shared_ptr<TraceBus> bus = std::make_shared<TraceBus>();
  std::shared_ptr<MetricsRegistry> metrics = std::make_shared<MetricsRegistry>();
};

/// Per-component telemetry handle: the component's name on a TraceBus and
/// its metric prefix on a MetricsRegistry. The handle holds its plane by
/// shared pointer, so the owning component stays movable and the
/// instruments it resolved stay valid.
///
/// Wiring pattern: a component takes its plane as a constructor argument
/// (defaulting to a fresh private one), declares its scope first, and binds
/// each instrument and kind once in its member declaration:
///   sim::TraceScope trace_;
///   sim::Counter& c_sent_ = trace_.counter("sent");
///   const sim::TraceId k_tx_ = trace_.kind("tx");
/// A scope never changes planes.
class TraceScope {
 public:
  explicit TraceScope(std::string component, std::string metric_prefix = {},
                      const Telemetry& t = {});

  const std::shared_ptr<TraceBus>& bus() const { return t_.bus; }
  /// The plane's registry (for gauges and ad-hoc instruments).
  MetricsRegistry& metrics() const { return *t_.metrics; }
  const std::string& component() const { return component_name_; }

  /// `prefix + key` on the plane's registry.
  Counter& counter(std::string_view key);
  LatencyHistogram& histogram(std::string_view key, double lo, double hi,
                              std::size_t buckets);

  /// Local gate AND the bus gate; `ASECK_TRACE` callers check this before
  /// building detail strings.
  bool enabled() const { return enabled_ && t_.bus->enabled(); }
  void set_enabled(bool on) { enabled_ = on; }

  /// Pre-interns a kind for the TraceId fast path.
  TraceId kind(std::string_view k) { return t_.bus->intern(k); }

  /// Hot path: two ints + detail, no name copies.
  void record(util::SimTime at, TraceId kind_id, std::string detail = {}) {
    if (!enabled()) return;
    t_.bus->record(at, component_, kind_id, std::move(detail));
  }
  /// Cold path: interns the kind on the fly.
  void record(util::SimTime at, std::string_view kind, std::string detail = {}) {
    if (!enabled()) return;
    t_.bus->record(at, component_, t_.bus->intern(kind), std::move(detail));
  }

 private:
  Telemetry t_;
  std::string component_name_;
  std::string prefix_;
  TraceId component_ = 0;
  bool enabled_ = true;
};

}  // namespace aseck::sim

/// Records on any sink-like object (TraceScope, TraceBus) without evaluating
/// the record arguments — in particular detail-string concatenations — when
/// the sink is disabled. Use at hot call sites.
#define ASECK_TRACE(sink, ...)                        \
  do {                                                \
    if ((sink).enabled()) (sink).record(__VA_ARGS__); \
  } while (0)
