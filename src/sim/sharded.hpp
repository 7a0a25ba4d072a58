#pragma once
// Sharded, thread-parallel, bit-deterministic world simulation.
//
// The single-threaded `sim::Scheduler` caps every experiment at a few
// hundred interacting entities (E2/E17 saturate near 500 V2X neighbors).
// `ShardedWorld` partitions the world into a uniform grid of spatial cells
// (*shards*); each shard owns a private event loop — its own `Scheduler`,
// `Telemetry` plane (TraceBus + MetricsRegistry), and RNG stream — and the
// set of shards is advanced in fixed *epochs* on a fork-join thread pool.
//
// Determinism contract (the reason an N-thread run is bit-identical to a
// 1-thread run of the same seed):
//
//  1. Within an epoch a shard's events touch only that shard's state.
//     Cross-shard effects go through `Shard::post`, which appends to the
//     *sending* shard's outbox — never to shared state.
//  2. A barrier ends the epoch. Outboxes are then frozen (double-buffered:
//     handlers that post during delivery write to the next epoch's outbox)
//     and merged in a seed- and thread-count-independent canonical order:
//     for each destination shard, messages from its <=9 neighboring source
//     shards (including itself) in ascending source shard id, each source's
//     messages in post order; then messages from non-neighbor sources in
//     the same (source id, post order) key. Neighbor delivery itself runs
//     in parallel (each destination is drained by exactly one thread);
//     non-neighbor ("far") traffic — cloud/OTA-style messages — is rare
//     and merged serially.
//  3. A message posted in epoch [t, t+E) is handled no earlier than the
//     epoch boundary t+E (conservative synchronization with lookahead E):
//     handlers with deliver_at <= t+E run at the boundary, before any
//     scheduler event of the next epoch; later deliver_at values are
//     scheduled into the destination's queue (FIFO-stable, see
//     scheduler.hpp).
//  4. Per-shard RNG streams are derived from the master seed by shard id
//     (`util::Rng::for_stream`), so shard-local randomness never depends
//     on the interleaving of other shards.
//
// Telemetry stays exactly reproducible across thread counts because each
// shard records into its own registry/bus and `merge_metrics` folds them in
// ascending shard id order (using `MetricsRegistry::merge_from`).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "sim/threadpool.hpp"
#include "util/rng.hpp"
#include "util/smallfn.hpp"

namespace aseck::sim {

struct ShardedWorldConfig {
  double width_m = 1000.0;
  double height_m = 1000.0;
  /// Shard cell edge. For interaction models (V2X radio) choose
  /// cell_m >= interaction range so any interaction crosses at most one
  /// cell boundary and the 8-neighbor epoch batches suffice.
  double cell_m = 500.0;
  /// Epoch length = cross-shard synchronization lookahead.
  SimTime epoch = SimTime::from_ms(100);
  /// Worker threads including the caller; 1 = strictly single-threaded.
  unsigned threads = 1;
  std::uint64_t seed = 1;
};

class ShardedWorld;

/// One spatial cell: a private event loop plus the cross-shard mailbox.
/// Not constructible by users; obtained from `ShardedWorld::shard`.
class Shard {
 public:
  /// Cross-shard message handler. 160 bytes of inline capture fits an entity
  /// migration (the largest payload in the city model — a CityVehicle now
  /// carries its rotation-beacon ECDSA signature for the real-crypto receive
  /// path) without heap allocation on the per-message hot path.
  using Handler = util::SmallFn<void(Shard&), 160>;

  Scheduler& sched() { return sched_; }
  MetricsRegistry& metrics() { return *telemetry_.metrics; }
  util::Rng& rng() { return rng_; }

  std::uint32_t index() const { return index_; }
  std::uint32_t col() const { return col_; }
  std::uint32_t row() const { return row_; }

  /// Posts `fn` to shard `to`; it runs there at the next epoch boundary
  /// (or at `deliver_at` if that is later). May be called from shard
  /// events and from message handlers; a handler's posts are delivered at
  /// the *following* boundary. Only the owning shard's thread may call
  /// this (i.e. call it from events/handlers running on this shard).
  void post(std::uint32_t to, SimTime deliver_at, Handler fn);

  /// Messages handled by this shard so far.
  std::uint64_t messages_in() const { return delivered_; }

 private:
  friend class ShardedWorld;
  Shard(ShardedWorld& world, std::uint32_t index, std::uint32_t col,
        std::uint32_t row, std::uint64_t master_seed);

  struct Msg {
    SimTime at;
    Handler fn;
  };
  struct FarMsg {
    std::uint32_t to;
    SimTime at;
    Handler fn;
  };

  ShardedWorld& world_;
  std::uint32_t index_, col_, row_;
  Scheduler sched_;
  Telemetry telemetry_;
  util::Rng rng_;
  // Outbox slot k = (drow+1)*3 + (dcol+1) holds messages for the neighbor
  // at that offset (slot 4 = self). Double-buffered across the barrier.
  std::array<std::vector<Msg>, 9> out_, pending_;
  std::vector<FarMsg> far_out_, far_pending_;
  std::uint64_t delivered_ = 0;
};

class ShardedWorld {
 public:
  explicit ShardedWorld(ShardedWorldConfig cfg);

  std::uint32_t cols() const { return cols_; }
  std::uint32_t rows() const { return rows_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  Shard& shard(std::uint32_t i) { return *shards_[i]; }

  /// Shard owning position (x, y); coordinates clamp to the world box.
  std::uint32_t shard_index_at(double x, double y) const;

  /// World time: the last completed epoch boundary.
  SimTime now() const { return now_; }
  std::uint64_t epochs() const { return epochs_; }
  /// Total cross-shard messages handled (sum over shards, deterministic).
  std::uint64_t messages() const;

  /// Advances every shard to `until` in epoch steps with barrier merges.
  void run_until(SimTime until);

  /// Folds every shard's metrics into `into` in ascending shard id order.
  void merge_metrics(MetricsRegistry& into) const;
  /// Deterministic JSON of the merged registries (same bytes for any
  /// thread count).
  std::string merged_metrics_json() const;

 private:
  using Msg = Shard::Msg;
  void deliver_neighbors(Shard& dst, SimTime end);
  void deliver_far(SimTime end);
  static void deliver(Shard& dst, Msg&& m, SimTime end);

  ShardedWorldConfig cfg_;
  std::uint32_t cols_, rows_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ThreadPool pool_;
  SimTime now_ = SimTime::zero();
  std::uint64_t epochs_ = 0;
};

}  // namespace aseck::sim
