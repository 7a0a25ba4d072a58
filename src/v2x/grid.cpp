#include "v2x/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aseck::v2x {

SpatialGrid::SpatialGrid(double cell_m) : cell_(cell_m) {
  if (!(cell_m > 0)) throw std::invalid_argument("SpatialGrid: bad cell size");
}

std::int64_t SpatialGrid::cell_of(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_));
}

void SpatialGrid::update(std::uint64_t id, double x, double y) {
  const std::uint64_t key = cell_key(cell_of(x), cell_of(y));
  auto it = recs_.find(id);
  if (it != recs_.end()) {
    if (it->second.cell == key) {
      it->second.x = x;
      it->second.y = y;
      return;
    }
    auto& old = cells_[it->second.cell];
    old.erase(std::find(old.begin(), old.end(), id));  // swap-free: keep O(k)
    if (old.empty()) cells_.erase(it->second.cell);
    it->second = Rec{x, y, key};
  } else {
    recs_.emplace(id, Rec{x, y, key});
  }
  cells_[key].push_back(id);
}

void SpatialGrid::remove(std::uint64_t id) {
  auto it = recs_.find(id);
  if (it == recs_.end()) return;
  auto& cell = cells_[it->second.cell];
  cell.erase(std::find(cell.begin(), cell.end(), id));
  if (cell.empty()) cells_.erase(it->second.cell);
  recs_.erase(it);
}

void SpatialGrid::query(double x, double y, double radius,
                        std::vector<std::uint64_t>& out) const {
  out.clear();
  if (!(radius >= 0)) return;
  const double r2 = radius * radius;
  const std::int64_t cx0 = cell_of(x - radius), cx1 = cell_of(x + radius);
  const std::int64_t cy0 = cell_of(y - radius), cy1 = cell_of(y + radius);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      const auto it = cells_.find(cell_key(cx, cy));
      if (it == cells_.end()) continue;
      for (const std::uint64_t id : it->second) {
        const Rec& rec = recs_.find(id)->second;
        const double dx = rec.x - x, dy = rec.y - y;
        if (dx * dx + dy * dy <= r2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace aseck::v2x
