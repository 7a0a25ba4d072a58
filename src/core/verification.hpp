#pragma once
// Verification-space modeling (paper Sections 5/6: "verification needs" and
// the burden extensibility adds). An extensible architecture multiplies the
// configuration space; exhaustive verification is infeasible, so coverage
// strategies matter:
//   * exhaustive        — product of all parameter domains
//   * pairwise (AETG-style greedy covering array) — covers every value PAIR
//   * extensibility-aware reduction — parameters proven composition-safe
//     ("reducible") are verified once per value in isolation, not crossed.
// Experiment E12 compares the three as parameters/configurations grow.

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace aseck::core {

struct ConfigParam {
  std::string name;
  std::size_t cardinality = 2;  // number of values
  /// True if verification results for this parameter compose (can be
  /// verified in isolation thanks to an architectural isolation argument).
  bool reducible = false;
};

class ConfigSpace {
 public:
  void add(ConfigParam p) { params_.push_back(std::move(p)); }

  /// |full cross product| (saturating at ~1e18).
  std::uint64_t exhaustive_count() const;

  /// Rows of a greedy pairwise covering array (every pair of values of every
  /// two parameters appears in some row).
  std::vector<std::vector<std::size_t>> pairwise_array(std::uint64_t seed) const;

  /// Extensibility-aware count: cross product over non-reducible parameters
  /// plus per-value isolated runs for reducible ones.
  std::uint64_t reduced_count() const;

  /// True if `rows` covers all value pairs (validation of the array).
  bool covers_all_pairs(const std::vector<std::vector<std::size_t>>& rows) const;

 private:
  std::vector<ConfigParam> params_;
};

}  // namespace aseck::core
