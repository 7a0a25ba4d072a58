#pragma once
// Uniform-grid spatial index for V2X neighbor discovery.
//
// Replaces the O(N) per-broadcast linear range scan (O(N^2) per simulated
// second of dense traffic) with a hash grid of square cells: a range query
// touches only the cells overlapping the query circle's bounding box, so
// its cost tracks the *local* density, not the world population. Keyed to
// the same cell geometry as the sharded world (sim/sharded.hpp): with
// cell_m >= radio range a query spills into at most the 8 adjacent cells —
// exactly the neighborhoods the epoch batches cover.
//
// Determinism: queries return ids sorted ascending, independent of hash
// layout and insertion history. V2xMedium uses monotonically assigned
// attach sequence numbers as ids, so a sorted query reproduces the linear
// scan's iteration order bit-for-bit (v2x_grid_test.cpp pins this).
//
// The index stores *recorded* positions (from the last insert/update or
// reindex); entities move between refreshes, so callers must query with a
// slack margin covering max_speed * max_staleness and re-check exact
// distances against live positions.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace aseck::v2x {

class SpatialGrid {
 public:
  explicit SpatialGrid(double cell_m);

  /// Inserts or moves `id` to recorded position (x, y).
  void update(std::uint64_t id, double x, double y);
  /// Removes `id`; no-op if absent.
  void remove(std::uint64_t id);

  /// Appends to `out` every id whose *recorded* position is within
  /// `radius` of (x, y), sorted ascending. `out` is cleared first.
  void query(double x, double y, double radius,
             std::vector<std::uint64_t>& out) const;

  std::size_t size() const { return recs_.size(); }

 private:
  static std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
    // Interleave-free packing: 32 bits per axis, offset to keep negatives
    // distinct.
    return (static_cast<std::uint64_t>(cx + 0x80000000LL) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               cy + 0x80000000LL));
  }
  std::int64_t cell_of(double v) const;

  struct Rec {
    double x, y;
    std::uint64_t cell;
  };
  double cell_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cells_;
  std::unordered_map<std::uint64_t, Rec> recs_;
};

}  // namespace aseck::v2x
