#include "sim/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aseck::sim {

namespace {
constexpr std::size_t kTraceCapacity = 256;  // per-shard TraceBus ring
}  // namespace

Shard::Shard(ShardedWorld& world, std::uint32_t index, std::uint32_t col,
             std::uint32_t row, std::uint64_t master_seed)
    : world_(world),
      index_(index),
      col_(col),
      row_(row),
      rng_(util::Rng::for_stream(master_seed, index)) {
  telemetry_.bus->set_capacity(kTraceCapacity);
}

void Shard::post(std::uint32_t to, SimTime deliver_at, Handler fn) {
  if (to >= world_.shard_count()) {
    throw std::out_of_range("Shard::post: bad destination shard");
  }
  const std::uint32_t cols = world_.cols();
  const std::int32_t dcol = static_cast<std::int32_t>(to % cols) -
                            static_cast<std::int32_t>(col_);
  const std::int32_t drow = static_cast<std::int32_t>(to / cols) -
                            static_cast<std::int32_t>(row_);
  if (dcol >= -1 && dcol <= 1 && drow >= -1 && drow <= 1) {
    out_[static_cast<std::size_t>((drow + 1) * 3 + (dcol + 1))].push_back(
        Msg{deliver_at, std::move(fn)});
  } else {
    far_out_.push_back(FarMsg{to, deliver_at, std::move(fn)});
  }
}

ShardedWorld::ShardedWorld(ShardedWorldConfig cfg)
    : cfg_(cfg), pool_(cfg.threads) {
  if (cfg_.width_m <= 0 || cfg_.height_m <= 0 || cfg_.cell_m <= 0) {
    throw std::invalid_argument("ShardedWorld: bad dimensions");
  }
  if (cfg_.epoch.ns == 0) {
    throw std::invalid_argument("ShardedWorld: zero epoch");
  }
  cols_ = static_cast<std::uint32_t>(std::ceil(cfg_.width_m / cfg_.cell_m));
  rows_ = static_cast<std::uint32_t>(std::ceil(cfg_.height_m / cfg_.cell_m));
  if (cols_ == 0) cols_ = 1;
  if (rows_ == 0) rows_ = 1;
  shards_.reserve(static_cast<std::size_t>(cols_) * rows_);
  for (std::uint32_t r = 0; r < rows_; ++r) {
    for (std::uint32_t c = 0; c < cols_; ++c) {
      shards_.emplace_back(new Shard(*this, r * cols_ + c, c, r, cfg_.seed));
    }
  }
}

std::uint32_t ShardedWorld::shard_index_at(double x, double y) const {
  double cx = std::floor(x / cfg_.cell_m);
  double cy = std::floor(y / cfg_.cell_m);
  if (!(cx > 0)) cx = 0;  // also catches NaN
  if (!(cy > 0)) cy = 0;
  std::uint32_t c = static_cast<std::uint32_t>(cx);
  std::uint32_t r = static_cast<std::uint32_t>(cy);
  if (c >= cols_) c = cols_ - 1;
  if (r >= rows_) r = rows_ - 1;
  return r * cols_ + c;
}

std::uint64_t ShardedWorld::messages() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->delivered_;
  return n;
}

void ShardedWorld::deliver(Shard& dst, Msg&& m, SimTime end) {
  ++dst.delivered_;
  if (m.at <= end) {
    m.fn(dst);  // handled at the boundary, before next-epoch events
  } else {
    auto fn = std::make_shared<Shard::Handler>(std::move(m.fn));
    Shard* d = &dst;
    dst.sched_.schedule_at(m.at, [fn, d] { (*fn)(*d); });
  }
}

void ShardedWorld::deliver_neighbors(Shard& dst, SimTime end) {
  // Sources in ascending shard id: row-major over the 3x3 neighborhood.
  const std::int32_t r0 = static_cast<std::int32_t>(dst.row_);
  const std::int32_t c0 = static_cast<std::int32_t>(dst.col_);
  for (std::int32_t dr = -1; dr <= 1; ++dr) {
    const std::int32_t sr = r0 + dr;
    if (sr < 0 || sr >= static_cast<std::int32_t>(rows_)) continue;
    for (std::int32_t dc = -1; dc <= 1; ++dc) {
      const std::int32_t sc = c0 + dc;
      if (sc < 0 || sc >= static_cast<std::int32_t>(cols_)) continue;
      Shard& src = *shards_[static_cast<std::size_t>(sr) * cols_ +
                            static_cast<std::size_t>(sc)];
      // Slot of src that targets dst: offset of dst relative to src.
      auto& slot = src.pending_[static_cast<std::size_t>((-dr + 1) * 3 +
                                                         (-dc + 1))];
      for (Msg& m : slot) deliver(dst, std::move(m), end);
      slot.clear();  // dst is the only reader/writer of this slot here
    }
  }
}

void ShardedWorld::deliver_far(SimTime end) {
  for (auto& s : shards_) {
    for (Shard::FarMsg& m : s->far_pending_) {
      deliver(*shards_[m.to], Msg{m.at, std::move(m.fn)}, end);
    }
    s->far_pending_.clear();
  }
}

void ShardedWorld::run_until(SimTime until) {
  const std::size_t n = shards_.size();
  while (now_ < until) {
    SimTime end = now_ + cfg_.epoch;
    if (end > until) end = until;

    pool_.parallel_for(
        n, [this, end](std::size_t i) { shards_[i]->sched_.run_until(end); });

    // Freeze this epoch's outboxes; posts from delivery handlers land in
    // the fresh outboxes and ship at the next boundary.
    bool any = false, any_far = false;
    for (auto& s : shards_) {
      for (std::size_t k = 0; k < 9; ++k) {
        if (!s->out_[k].empty()) {
          std::swap(s->out_[k], s->pending_[k]);
          any = true;
        }
      }
      if (!s->far_out_.empty()) {
        std::swap(s->far_out_, s->far_pending_);
        any_far = true;
      }
    }
    if (any) {
      pool_.parallel_for(n, [this, end](std::size_t i) {
        deliver_neighbors(*shards_[i], end);
      });
    }
    if (any_far) deliver_far(end);

    now_ = end;
    ++epochs_;
  }
}

void ShardedWorld::merge_metrics(MetricsRegistry& into) const {
  for (const auto& s : shards_) into.merge_from(*s->telemetry_.metrics);
}

std::string ShardedWorld::merged_metrics_json() const {
  MetricsRegistry merged;
  merge_metrics(merged);
  return merged.to_json();
}

}  // namespace aseck::sim
