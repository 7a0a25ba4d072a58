#include "sim/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace aseck::sim {

// ---------------------------------------------------------------------------
// TraceBus

TraceBus::TraceBus() {
  // Id 0 is the empty/unknown name.
  auto [it, _] = ids_.emplace(std::string{}, 0);
  names_.push_back(&it->first);
}

TraceId TraceBus::intern(std::string_view s) {
  if (s.empty()) return 0;
  const auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  const TraceId id = static_cast<TraceId>(names_.size());
  const auto [ins, _] = ids_.emplace(std::string(s), id);
  names_.push_back(&ins->first);
  return id;
}

TraceId TraceBus::lookup(std::string_view s) const {
  const auto it = ids_.find(s);
  return it == ids_.end() ? 0 : it->second;
}

const std::string& TraceBus::name(TraceId id) const {
  static const std::string kEmpty;
  if (id >= names_.size()) return kEmpty;
  return *names_[id];
}

void TraceBus::set_capacity(std::size_t cap) {
  if (cap == capacity_) return;
  // Linearize the current window oldest-first, then keep the newest `cap`.
  std::vector<TraceEvent> linear;
  linear.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    linear.push_back(std::move(const_cast<TraceEvent&>(event(i))));
  }
  if (cap != 0 && linear.size() > cap) {
    evicted_ += linear.size() - cap;
    linear.erase(linear.begin(),
                 linear.begin() + static_cast<std::ptrdiff_t>(linear.size() - cap));
  }
  events_ = std::move(linear);
  head_ = 0;
  capacity_ = cap;
}

void TraceBus::record(util::SimTime at, TraceId component, TraceId kind,
                      std::string detail) {
  if (!enabled_) return;
  TraceEvent ev{at, next_seq_++, component, kind, std::move(detail)};
  ++total_recorded_;
  for (const Sub& s : subscribers_) s.fn(ev);
  if (capacity_ == 0 || events_.size() < capacity_) {
    events_.push_back(std::move(ev));
  } else {
    events_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++evicted_;
  }
}

const TraceEvent& TraceBus::event(std::size_t i) const {
  if (capacity_ != 0 && events_.size() == capacity_) {
    return events_[(head_ + i) % capacity_];
  }
  return events_[i];
}

std::size_t TraceBus::count(std::string_view component,
                            std::string_view kind) const {
  TraceId cid = 0, kid = 0;
  if (!component.empty() && (cid = lookup(component)) == 0) return 0;
  if (!kind.empty() && (kid = lookup(kind)) == 0) return 0;
  std::size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (cid != 0 && e.component != cid) continue;
    if (kid != 0 && e.kind != kid) continue;
    ++n;
  }
  return n;
}

const TraceEvent* TraceBus::find_first(std::string_view component,
                                       std::string_view kind) const {
  TraceId cid = 0, kid = 0;
  if (!component.empty() && (cid = lookup(component)) == 0) return nullptr;
  if (!kind.empty() && (kid = lookup(kind)) == 0) return nullptr;
  for (std::size_t i = 0; i < size(); ++i) {
    const TraceEvent& e = event(i);
    if (cid != 0 && e.component != cid) continue;
    if (kid != 0 && e.kind != kid) continue;
    return &e;
  }
  return nullptr;
}

std::uint64_t TraceBus::subscribe(Subscriber fn) {
  const std::uint64_t token = next_token_++;
  subscribers_.push_back(Sub{token, std::move(fn)});
  return token;
}

void TraceBus::unsubscribe(std::uint64_t token) {
  subscribers_.erase(
      std::remove_if(subscribers_.begin(), subscribers_.end(),
                     [token](const Sub& s) { return s.token == token; }),
      subscribers_.end());
}

std::string TraceBus::timeline(std::string_view component,
                               std::string_view kind) const {
  TraceId cid = 0, kid = 0;
  if (!component.empty() && (cid = lookup(component)) == 0) return {};
  if (!kind.empty() && (kid = lookup(kind)) == 0) return {};
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < size(); ++i) {
    const TraceEvent& e = event(i);
    if (cid != 0 && e.component != cid) continue;
    if (kid != 0 && e.kind != kid) continue;
    std::snprintf(buf, sizeof buf, "#%llu @%.3fus ",
                  static_cast<unsigned long long>(e.seq), e.at.us());
    out += buf;
    out += name(e.component);
    out += ' ';
    out += name(e.kind);
    if (!e.detail.empty()) {
      out += ' ';
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// LatencyHistogram

LatencyHistogram::LatencyHistogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (buckets == 0 || hi <= lo) {
    throw std::invalid_argument("LatencyHistogram: bad bucket layout");
  }
}

void LatencyHistogram::record(double x) {
  if (std::isnan(x)) {
    // NaN fails both range guards and casting it to an integer bucket index
    // is UB; count it separately instead of binning.
    ++nan_;
    return;
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  // Clamp in floating point before the cast: converting an infinite or
  // >= 2^64 index to an integer is UB.
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  const double idx = std::clamp((x - lo_) / w, 0.0,
                                static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(idx)];
}

double LatencyHistogram::bucket_low(std::size_t i) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + w * static_cast<double>(i);
}

void LatencyHistogram::merge_from(const LatencyHistogram& o) {
  if (o.lo_ != lo_ || o.hi_ != hi_ || o.counts_.size() != counts_.size()) {
    throw std::invalid_argument("LatencyHistogram::merge_from: layout mismatch");
  }
  if (o.count_ != 0) {
    if (count_ == 0) {
      min_ = o.min_;
      max_ = o.max_;
    } else {
      min_ = std::min(min_, o.min_);
      max_ = std::max(max_, o.max_);
    }
  }
  count_ += o.count_;
  nan_ += o.nan_;
  sum_ += o.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac =
          counts_[i] == 0 ? 0 : (target - cum) / static_cast<double>(counts_[i]);
      return bucket_low(i) + frac * (bucket_high(i) - bucket_low(i));
    }
    cum = next;
  }
  return max_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name, double lo,
                                             double hi, std::size_t buckets) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<LatencyHistogram>(lo, hi, buckets))
              .first->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c ? c->value() : 0;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const LatencyHistogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).inc(c->value());
  for (const auto& [name, g] : other.gauges_) gauge(name).add(g->value());
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h->low(), h->high(), h->buckets()).merge_from(*h);
  }
}

namespace {
void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}
// JSON has no NaN or infinity, so a non-finite value exports as null.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}
}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  {
    std::map<std::string_view, const Counter*> sorted;
    for (const auto& [k, v] : counters_) sorted[k] = v.get();
    bool first = true;
    for (const auto& [k, v] : sorted) {
      if (!first) out += ',';
      first = false;
      out += '"';
      append_json_escaped(out, std::string(k));
      out += "\":" + std::to_string(v->value());
    }
  }
  out += "},\"gauges\":{";
  {
    std::map<std::string_view, const Gauge*> sorted;
    for (const auto& [k, v] : gauges_) sorted[k] = v.get();
    bool first = true;
    for (const auto& [k, v] : sorted) {
      if (!first) out += ',';
      first = false;
      out += '"';
      append_json_escaped(out, std::string(k));
      out += "\":" + fmt_double(v->value());
    }
  }
  out += "},\"histograms\":{";
  {
    std::map<std::string_view, const LatencyHistogram*> sorted;
    for (const auto& [k, v] : histograms_) sorted[k] = v.get();
    bool first = true;
    for (const auto& [k, v] : sorted) {
      if (!first) out += ',';
      first = false;
      out += '"';
      append_json_escaped(out, std::string(k));
      out += "\":{\"count\":" + std::to_string(v->count());
      out += ",\"sum\":" + fmt_double(v->sum());
      out += ",\"min\":" + fmt_double(v->min());
      out += ",\"max\":" + fmt_double(v->max());
      out += ",\"mean\":" + fmt_double(v->mean());
      out += ",\"p50\":" + fmt_double(v->percentile(50));
      out += ",\"p95\":" + fmt_double(v->percentile(95));
      out += ",\"p99\":" + fmt_double(v->percentile(99));
      out += '}';
    }
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// TraceScope

TraceScope::TraceScope(std::string component, std::string metric_prefix,
                       const Telemetry& t)
    : t_(t),
      component_name_(std::move(component)),
      prefix_(std::move(metric_prefix)),
      component_(t_.bus->intern(component_name_)) {}

Counter& TraceScope::counter(std::string_view key) {
  return t_.metrics->counter(prefix_ + std::string(key));
}

LatencyHistogram& TraceScope::histogram(std::string_view key, double lo,
                                        double hi, std::size_t buckets) {
  return t_.metrics->histogram(prefix_ + std::string(key), lo, hi, buckets);
}

}  // namespace aseck::sim
