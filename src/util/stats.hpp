#pragma once
// Statistics accumulators used by benches, IDS detectors, and the
// side-channel analysis code (Welford online moments, percentiles,
// Pearson correlation, Welch's t-test).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aseck::util {

/// Online mean/variance via Welford's algorithm; O(1) memory.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores samples; supports exact percentiles. Use for latency distributions.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Exact percentile with linear interpolation; p in [0,100].
  double percentile(double p) const;

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Pearson correlation coefficient of two equal-length series.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// Welch's t statistic between two sample groups (TVLA leakage testing).
double welch_t(const RunningStats& a, const RunningStats& b);

}  // namespace aseck::util
