#pragma once
// City-scale V2X metro simulation on the sharded world (E19).
//
// `MetroWorld` scales the V2X workload of net.hpp to 100k+ vehicles by
// running on `sim::ShardedWorld`: vehicles live in the
// shard that owns their position, BSM broadcast and reception happen
// shard-locally through the shard-cell geometry (cell edge >= radio
// range), and two kinds of cross-shard traffic ride the epoch batches:
//
//  * BSM spill — a transmission whose range circle overlaps an adjacent
//    cell posts one message per overlapped neighbor; the receiving shard
//    scans its own vehicles next epoch (reception is delayed by up to one
//    epoch across a cell boundary — the conservative-sync lookahead).
//  * Migration — a vehicle that crosses a cell boundary is removed from
//    its shard on its transmit tick and arrives in the destination shard's
//    vehicle list at the epoch boundary (it misses exactly one of its own
//    BSM ticks in transit).
//
// Pseudonym churn (the Yoshizawa et al. workload): each vehicle rotates
// its temp id on a fixed period with per-vehicle phase; new ids derive
// from (vehicle id, rotation count) alone, so rotation is stable across
// shard layouts and thread counts. Channel loss draws from the *receiving*
// shard's RNG stream in scan order — deterministic for any thread count.
//
// Crypto comes in two modes. With `real_crypto` off (the struct default)
// receptions carry no crypto at all; the substrate tests use it to stay
// fast. `bench_e19_city_scale` and the repo benchmark set `real_crypto`:
// every reception runs genuine ECDSA-P256 through the shard's batch verify
// pipeline (E22): each vehicle signs one beacon per pseudonym rotation over
// (id, rotations, temp_id) with a key
// derived deterministically from (id, rotations); receivers verify each
// (sender, rotation) beacon once — an `admitted` LRU dedups repeat
// receptions, and misses accumulate into the shard's `VerifyEngine` RLC
// batch. Keys, signatures, and flush points are all pure functions of the
// workload, so the digest stays bit-identical across thread counts.
//
// Everything observable — per-shard metrics, merged totals, and the FNV
// state hash over final vehicle states — is bit-identical between a
// 1-thread and an N-thread run of the same seed (`digest_json`, compared
// byte-for-byte by the `determinism.e19_threads` ctest).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/verify_engine.hpp"
#include "sim/sharded.hpp"
#include "util/lru.hpp"

namespace aseck::v2x {

struct MetroConfig {
  std::size_t vehicles = 100000;
  double width_m = 20000.0;
  double height_m = 20000.0;
  /// Shard cell edge; must be >= range_m so spill only reaches the 8
  /// adjacent cells.
  double cell_m = 500.0;
  double range_m = 300.0;
  util::SimTime epoch = util::SimTime::from_ms(100);
  util::SimTime pseudonym_period = util::SimTime::from_s(5);
  unsigned threads = 1;
  std::uint64_t seed = 42;
  /// Run genuine ECDSA-P256 on the receive path: per-(vehicle, rotation)
  /// beacon signatures, shard-local admitted-cache dedup, and the E22 RLC
  /// batch kernel for the misses.
  bool real_crypto = false;
  /// Target RLC batch per shard; pending checks flush when this many
  /// accumulate (and at every tick / end of run).
  std::size_t crypto_batch = 64;
};

/// One simulated vehicle. POD by design: it migrates between shards inside
/// a cross-shard message's inline payload.
struct CityVehicle {
  std::uint64_t id = 0;
  double x = 0, y = 0;    // position at time t0
  double vx = 0, vy = 0;  // straight segments, wall bounce on tick
  util::SimTime t0;
  std::uint32_t temp_id = 0;
  std::uint32_t rotations = 0;
  util::SimTime next_rotation;
  /// Real-crypto mode: signature over the rotation beacon (id, rotations,
  /// temp_id), produced lazily on the first transmit after each rotation.
  crypto::EcdsaSignature beacon_sig;
  std::uint8_t beacon_signed = 0;
};

class MetroWorld {
 public:
  explicit MetroWorld(MetroConfig cfg);
  ~MetroWorld();

  /// Advances the whole metro to sim time `until` (epoch barriers inside).
  void run_until(util::SimTime until);

  sim::ShardedWorld& world() { return *world_; }
  const MetroConfig& config() const { return cfg_; }

  struct Totals {
    std::uint64_t bsm_tx = 0;
    std::uint64_t rx = 0;        // delivered receptions (incl. cross)
    std::uint64_t rx_cross = 0;  // receptions via cross-shard spill
    std::uint64_t lost = 0;      // channel-loss suppressions
    std::uint64_t migrations = 0;
    std::uint64_t rotations = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t cross_msgs = 0;  // epoch-batch messages handled
    // Real-crypto mode only (zero otherwise).
    std::uint64_t beacon_signs = 0;    // one per (vehicle, rotation) that tx'd
    std::uint64_t admit_hits = 0;      // receptions deduped by admitted cache
    std::uint64_t verify_enqueued = 0; // receptions that queued a real verify
    std::uint64_t verify_fail = 0;     // must stay 0 (honest senders only)
  };
  /// Deterministic merged totals (ascending shard id).
  Totals totals() const;

  /// FNV-1a over every shard's vehicle list in canonical order — a cheap
  /// whole-state fingerprint for determinism diffs.
  std::uint64_t state_hash() const;

  /// Canonical JSON digest of config (minus threads), totals, state hash,
  /// and the merged metrics registry. Byte-identical across thread counts
  /// for a fixed seed; contains no wall-clock quantities.
  std::string digest_json() const;

  /// Model-state memory per vehicle in bytes (vehicle records + epoch
  /// mailboxes; excludes allocator overhead).
  double bytes_per_vehicle() const;

  /// Derives the rotation-r temp id of vehicle `id` (pure function).
  static std::uint32_t temp_id_for(std::uint64_t id, std::uint32_t rotation);
  /// Deterministic per-(vehicle, rotation) signing key — the simulation's
  /// stand-in for pseudonym certificate provisioning: any party can derive
  /// the public half, so receivers skip certificate transport entirely.
  static crypto::EcdsaPrivateKey beacon_key(std::uint64_t id,
                                            std::uint32_t rotation);
  /// SHA-256 of the rotation beacon (id, rotations, temp_id) — what
  /// `CityVehicle::beacon_sig` signs.
  static crypto::Digest beacon_digest(std::uint64_t id, std::uint32_t rotation,
                                      std::uint32_t temp_id);

 private:
  /// Per-shard capacity of the admitted (sender id, rotation) cache and the
  /// derived-public-key cache.
  static constexpr std::size_t kCryptoCacheCapacity = 4096;

  struct ShardCrypto {
    explicit ShardCrypto(sim::MetricsRegistry& m) : engine(m, kCryptoCacheCapacity) {}
    crypto::VerifyEngine engine;
    /// Derived public keys, keyed (id << 32) | rotation.
    util::LruCache<std::uint64_t, crypto::EcdsaPublicKey> pubs{kCryptoCacheCapacity};
    /// (sender, rotation) beacons already verified by this shard.
    util::LruCache<std::uint64_t, char> admitted{kCryptoCacheCapacity};
    struct PendingItem {
      std::uint64_t key;  // (id << 32) | rotation
      crypto::EcdsaPublicKey pub;
      crypto::Digest digest;
      crypto::EcdsaSignature sig;
    };
    std::vector<PendingItem> pending;
    sim::Counter* signs = nullptr;
    sim::Counter* admit_hits = nullptr;
    sim::Counter* enqueued = nullptr;
    sim::Counter* verified_ok = nullptr;
    sim::Counter* verified_fail = nullptr;
  };

  struct ShardLocal {
    std::vector<CityVehicle> vehicles;
    sim::Counter* bsm_tx = nullptr;
    sim::Counter* rx = nullptr;
    sim::Counter* rx_cross = nullptr;
    sim::Counter* lost = nullptr;
    sim::Counter* migrations = nullptr;
    sim::Counter* rotations = nullptr;
    sim::Counter* bytes_tx = nullptr;
    std::uint64_t tick = 0;
    std::unique_ptr<ShardCrypto> crypto;  // real_crypto mode only
  };

  void tick(std::uint32_t shard_index);
  void send_bsm(sim::Shard& shard, ShardLocal& local, const CityVehicle& v,
                util::SimTime now);
  void receive_scan(sim::Shard& shard, ShardLocal& local, double sx, double sy,
                    std::uint64_t sender_id, bool cross,
                    std::uint32_t sender_rotation, std::uint32_t sender_temp_id,
                    const crypto::EcdsaSignature& sender_sig);
  /// Runs the accumulated RLC batch; admits what verifies.
  void flush_crypto(ShardLocal& local);

  MetroConfig cfg_;
  std::unique_ptr<sim::ShardedWorld> world_;
  std::vector<ShardLocal> locals_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tick_tasks_;
};

}  // namespace aseck::v2x
