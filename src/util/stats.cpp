#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aseck::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::min() const {
  ensure_sorted();
  return xs_.empty() ? 0.0 : xs_.front();
}

double Samples::max() const {
  ensure_sorted();
  return xs_.empty() ? 0.0 : xs_.back();
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) return xs_.back();
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("pearson: need two equal-length series, n >= 2");
  }
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  const double denom = std::sqrt(sxx * syy);
  return denom == 0.0 ? 0.0 : sxy / denom;
}

double welch_t(const RunningStats& a, const RunningStats& b) {
  if (a.count() < 2 || b.count() < 2) return 0.0;
  const double va = a.variance() / static_cast<double>(a.count());
  const double vb = b.variance() / static_cast<double>(b.count());
  const double denom = std::sqrt(va + vb);
  return denom == 0.0 ? 0.0 : (a.mean() - b.mean()) / denom;
}

}  // namespace aseck::util
