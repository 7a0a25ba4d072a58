#pragma once
// Bounded least-recently-used cache. Shared policy for the verify-result
// cache (crypto::VerifyEngine) and the certificate chain cache
// (v2x::TrustStore): both sit on hot verification paths where an unbounded
// map grows without limit under pseudonym churn.
//
// Deterministic by construction (ordered map index, no hashing, no clocks):
// the same access sequence always yields the same hit/evict sequence, which
// the seeded benches rely on for bit-identical output.

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <utility>

namespace aseck::util {

template <typename K, typename V>
class LruCache {
 public:
  /// capacity == 0 means unbounded (no eviction).
  explicit LruCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Looks up `k`, bumping it to most-recently-used. Returns nullptr on
  /// miss. The pointer stays valid until the entry is evicted or erased.
  V* find(const K& k) {
    const auto it = index_.find(k);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites `k`, making it most-recently-used. Evicts the
  /// least-recently-used entry when over capacity.
  void put(const K& k, V v) {
    const auto it = index_.find(k);
    if (it != index_.end()) {
      it->second->second = std::move(v);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(k, std::move(v));
    index_[k] = order_.begin();
    if (capacity_ != 0 && order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  std::size_t size() const { return order_.size(); }
  /// Rebinding the capacity evicts immediately if the cache is over the new
  /// bound.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (capacity_ != 0 && order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recently used
  std::map<K, typename std::list<std::pair<K, V>>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace aseck::util
