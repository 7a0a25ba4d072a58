#include "v2x/citynet.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace aseck::v2x {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
/// Per-delivery channel loss probability (receiving shard's RNG).
constexpr double kLossProb = 0.02;
constexpr util::SimTime kBsmPeriod = util::SimTime::from_ms(100);
/// Transmit phases within a BSM period (spreads events in sim time).
constexpr unsigned kSlots = 5;
static_assert(kBsmPeriod.ns % kSlots == 0, "slots must divide bsm_period");
constexpr double kMinSpeedMps = 3.0;
constexpr double kMaxSpeedMps = 25.0;
/// Modeled wire size of a signed BSM (payload + 1609.2 header + implicit
/// cert + ECDSA signature) for bytes-per-vehicle accounting.
constexpr std::size_t kBsmWireBytes = 246;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
std::uint64_t fnv1a_d(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}
}  // namespace

std::uint32_t MetroWorld::temp_id_for(std::uint64_t id, std::uint32_t rotation) {
  util::SplitMix64 sm(id ^ (static_cast<std::uint64_t>(rotation) *
                            0x9e3779b97f4a7c15ULL));
  return static_cast<std::uint32_t>(sm.next());
}

crypto::EcdsaPrivateKey MetroWorld::beacon_key(std::uint64_t id,
                                               std::uint32_t rotation) {
  // Fixed-size buffer (21-byte tag + be64 id + be32 rotation) instead of a
  // util::Bytes insert: GCC 12 -O2 misjudges the vector range-insert here
  // and raises a spurious -Wstringop-overflow under -Werror.
  static constexpr char kTag[] = "aseck.metro.beacon.v1";
  std::array<std::uint8_t, 21 + 8 + 4> seed{};
  std::memcpy(seed.data(), kTag, 21);
  for (std::size_t i = 0; i < 8; ++i) {
    seed[21 + i] = static_cast<std::uint8_t>(id >> (8 * (7 - i)));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    seed[29 + i] = static_cast<std::uint8_t>(rotation >> (8 * (3 - i)));
  }
  const crypto::Digest secret =
      crypto::sha256(util::BytesView(seed.data(), seed.size()));
  return crypto::EcdsaPrivateKey::from_secret(
      util::BytesView(secret.data(), secret.size()));
}

crypto::Digest MetroWorld::beacon_digest(std::uint64_t id,
                                         std::uint32_t rotation,
                                         std::uint32_t temp_id) {
  util::Bytes b;
  util::append_be(b, id, 8);
  util::append_be(b, rotation, 4);
  util::append_be(b, temp_id, 4);
  return crypto::sha256(b);
}

MetroWorld::MetroWorld(MetroConfig cfg) : cfg_(cfg) {
  if (cfg_.cell_m < cfg_.range_m) {
    throw std::invalid_argument(
        "MetroWorld: cell_m must be >= range_m (spill covers only the 8 "
        "adjacent cells)");
  }
  sim::ShardedWorldConfig wc;
  wc.width_m = cfg_.width_m;
  wc.height_m = cfg_.height_m;
  wc.cell_m = cfg_.cell_m;
  wc.epoch = cfg_.epoch;
  wc.threads = cfg_.threads;
  wc.seed = cfg_.seed;
  world_ = std::make_unique<sim::ShardedWorld>(wc);

  locals_.resize(world_->shard_count());
  for (std::uint32_t i = 0; i < world_->shard_count(); ++i) {
    sim::MetricsRegistry& m = world_->shard(i).metrics();
    ShardLocal& l = locals_[i];
    l.bsm_tx = &m.counter("city.bsm_tx");
    l.rx = &m.counter("city.rx");
    l.rx_cross = &m.counter("city.rx_cross");
    l.lost = &m.counter("city.lost");
    l.migrations = &m.counter("city.migrations");
    l.rotations = &m.counter("city.rotations");
    l.bytes_tx = &m.counter("city.bytes_tx");
    if (cfg_.real_crypto) {
      l.crypto = std::make_unique<ShardCrypto>(m);
      ShardCrypto& sc = *l.crypto;
      sc.engine.set_batch_kernel(true);
      sc.signs = &m.counter("city.crypto.signs");
      sc.admit_hits = &m.counter("city.crypto.admit_hits");
      sc.enqueued = &m.counter("city.crypto.enqueued");
      sc.verified_ok = &m.counter("city.crypto.verified_ok");
      sc.verified_fail = &m.counter("city.crypto.verified_fail");
    }
  }

  // Placement draws from the bare master seed; shard streams use
  // Rng::for_stream-derived seeds, so the sequences are unrelated.
  util::Rng place(cfg_.seed);
  for (std::size_t i = 0; i < cfg_.vehicles; ++i) {
    CityVehicle v;
    v.id = i;
    v.x = place.uniform_real(0.0, cfg_.width_m);
    v.y = place.uniform_real(0.0, cfg_.height_m);
    const double speed = place.uniform_real(kMinSpeedMps, kMaxSpeedMps);
    const double heading = place.uniform_real(0.0, kTwoPi);
    v.vx = speed * std::cos(heading);
    v.vy = speed * std::sin(heading);
    v.t0 = util::SimTime::zero();
    v.temp_id = temp_id_for(i, 0);
    // Stagger first rotations across 16 phases of the period.
    v.next_rotation = util::SimTime::from_ns(
        cfg_.pseudonym_period.ns / 16 * ((i % 16) + 1));
    locals_[world_->shard_index_at(v.x, v.y)].vehicles.push_back(v);
  }

  const util::SimTime slot_period =
      util::SimTime::from_ns(kBsmPeriod.ns / kSlots);
  tick_tasks_.reserve(world_->shard_count());
  for (std::uint32_t i = 0; i < world_->shard_count(); ++i) {
    tick_tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        world_->shard(i).sched(), slot_period, [this, i] { tick(i); },
        util::SimTime::zero()));
  }
}

MetroWorld::~MetroWorld() = default;

void MetroWorld::run_until(util::SimTime until) {
  world_->run_until(until);
  // Cross-shard spills processed after a shard's last tick can leave checks
  // pending; drain them so every observation point sees settled crypto.
  if (cfg_.real_crypto) {
    for (ShardLocal& l : locals_) flush_crypto(l);
  }
}

void MetroWorld::flush_crypto(ShardLocal& local) {
  ShardCrypto& sc = *local.crypto;
  if (sc.pending.empty()) return;
  std::vector<crypto::VerifyEngine::BatchItem> items;
  items.reserve(sc.pending.size());
  for (const ShardCrypto::PendingItem& p : sc.pending) {
    items.push_back({&p.pub, p.digest, &p.sig});
  }
  const std::vector<bool> ok = sc.engine.verify_batch(items);
  for (std::size_t i = 0; i < ok.size(); ++i) {
    if (ok[i]) {
      sc.verified_ok->inc();
      sc.admitted.put(sc.pending[i].key, 1);
    } else {
      sc.verified_fail->inc();
    }
  }
  sc.pending.clear();
}

void MetroWorld::receive_scan(sim::Shard& shard, ShardLocal& local, double sx,
                              double sy, std::uint64_t sender_id, bool cross,
                              std::uint32_t sender_rotation,
                              std::uint32_t sender_temp_id,
                              const crypto::EcdsaSignature& sender_sig) {
  const double r2 = cfg_.range_m * cfg_.range_m;
  std::uint64_t got = 0, lost = 0, crossed = 0;
  for (const CityVehicle& u : local.vehicles) {
    if (u.id == sender_id) continue;
    const double dx = u.x - sx, dy = u.y - sy;
    if (dx * dx + dy * dy > r2) continue;
    if (shard.rng().chance(kLossProb)) {
      ++lost;
      continue;
    }
    ++got;
    if (cross) ++crossed;
    if (local.crypto) {
      // Every receiver checks the sender's rotation beacon; the shard-wide
      // admitted cache makes all but the first check per (sender, rotation)
      // a hit — the amortization real 1609.2 stacks get from verify-result
      // caching, at city scale.
      ShardCrypto& sc = *local.crypto;
      const std::uint64_t key = (sender_id << 32) | sender_rotation;
      if (sc.admitted.find(key)) {
        sc.admit_hits->inc();
        continue;
      }
      const crypto::EcdsaPublicKey* pub = sc.pubs.find(key);
      if (!pub) {
        sc.pubs.put(key, beacon_key(sender_id, sender_rotation).public_key());
        pub = sc.pubs.find(key);
      }
      sc.pending.push_back(
          {key, *pub, beacon_digest(sender_id, sender_rotation, sender_temp_id),
           sender_sig});
      sc.enqueued->inc();
      if (sc.pending.size() >= cfg_.crypto_batch) flush_crypto(local);
    }
  }
  if (got) local.rx->inc(got);
  if (crossed) local.rx_cross->inc(crossed);
  if (lost) local.lost->inc(lost);
}

void MetroWorld::send_bsm(sim::Shard& shard, ShardLocal& local,
                          const CityVehicle& v, util::SimTime now) {
  local.bsm_tx->inc();
  local.bytes_tx->inc(kBsmWireBytes);
  receive_scan(shard, local, v.x, v.y, v.id, /*cross=*/false, v.rotations,
               v.temp_id, v.beacon_sig);

  // Spill into every adjacent cell the range circle overlaps: the
  // destination shard scans its own vehicle list at the next epoch
  // boundary.
  const double cell = cfg_.cell_m, r = cfg_.range_m;
  const std::int32_t col = static_cast<std::int32_t>(shard.col());
  const std::int32_t row = static_cast<std::int32_t>(shard.row());
  const double sx = v.x, sy = v.y;
  const std::uint64_t sid = v.id;
  const std::uint32_t srot = v.rotations, stid = v.temp_id;
  const crypto::EcdsaSignature ssig = v.beacon_sig;
  for (std::int32_t dr = -1; dr <= 1; ++dr) {
    const std::int32_t nr = row + dr;
    if (nr < 0 || nr >= static_cast<std::int32_t>(world_->rows())) continue;
    for (std::int32_t dc = -1; dc <= 1; ++dc) {
      if (dr == 0 && dc == 0) continue;
      const std::int32_t nc = col + dc;
      if (nc < 0 || nc >= static_cast<std::int32_t>(world_->cols())) continue;
      // Distance from the sender to the neighbor cell's rectangle.
      const double nx0 = nc * cell, ny0 = nr * cell;
      const double ddx = std::max({nx0 - sx, 0.0, sx - (nx0 + cell)});
      const double ddy = std::max({ny0 - sy, 0.0, sy - (ny0 + cell)});
      if (ddx * ddx + ddy * ddy > r * r) continue;
      const std::uint32_t to =
          static_cast<std::uint32_t>(nr) * world_->cols() +
          static_cast<std::uint32_t>(nc);
      shard.post(to, now, [this, sx, sy, sid, srot, stid, ssig](sim::Shard& d) {
        receive_scan(d, locals_[d.index()], sx, sy, sid, /*cross=*/true, srot,
                     stid, ssig);
      });
    }
  }
}

void MetroWorld::tick(std::uint32_t shard_index) {
  sim::Shard& shard = world_->shard(shard_index);
  ShardLocal& local = locals_[shard_index];
  const util::SimTime now = shard.sched().now();
  const unsigned slot = static_cast<unsigned>(local.tick % kSlots);
  ++local.tick;

  auto& vs = local.vehicles;
  std::vector<char> dead;  // lazily sized on first migration
  for (std::size_t vi = 0; vi < vs.size(); ++vi) {
    CityVehicle& v = vs[vi];
    if (v.id % kSlots != slot) continue;

    // Advance the straight segment; bounce off the world box.
    const double dt = (now - v.t0).seconds();
    double x = v.x + v.vx * dt, y = v.y + v.vy * dt;
    if (x < 0) {
      x = -x;
      v.vx = -v.vx;
    } else if (x > cfg_.width_m) {
      x = 2 * cfg_.width_m - x;
      v.vx = -v.vx;
    }
    if (y < 0) {
      y = -y;
      v.vy = -v.vy;
    } else if (y > cfg_.height_m) {
      y = 2 * cfg_.height_m - y;
      v.vy = -v.vy;
    }
    v.x = x;
    v.y = y;
    v.t0 = now;

    if (now >= v.next_rotation) {
      ++v.rotations;
      v.temp_id = temp_id_for(v.id, v.rotations);
      v.next_rotation += cfg_.pseudonym_period;
      local.rotations->inc();
      v.beacon_signed = 0;  // new pseudonym, new beacon to sign
    }

    if (local.crypto && !v.beacon_signed) {
      v.beacon_sig = beacon_key(v.id, v.rotations)
                         .sign_digest(beacon_digest(v.id, v.rotations,
                                                    v.temp_id));
      v.beacon_signed = 1;
      local.crypto->signs->inc();
    }

    send_bsm(shard, local, v, now);

    const std::uint32_t dst = world_->shard_index_at(v.x, v.y);
    if (dst != shard_index) {
      if (dead.empty()) dead.assign(vs.size(), 0);
      dead[vi] = 1;
      local.migrations->inc();
      const CityVehicle mv = v;
      shard.post(dst, now, [this, mv](sim::Shard& d) {
        locals_[d.index()].vehicles.push_back(mv);
      });
    }
  }
  if (!dead.empty()) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < vs.size(); ++r) {
      if (!dead[r]) {
        if (w != r) vs[w] = vs[r];
        ++w;
      }
    }
    vs.resize(w);
  }
  // Deterministic flush point: whatever this tick (and any cross-shard
  // spills processed since the last one) accumulated gets batch-verified
  // now, so admitted-cache state depends only on the workload order.
  if (local.crypto) flush_crypto(local);
}

MetroWorld::Totals MetroWorld::totals() const {
  Totals t;
  for (const ShardLocal& l : locals_) {
    t.bsm_tx += l.bsm_tx->value();
    t.rx += l.rx->value();
    t.rx_cross += l.rx_cross->value();
    t.lost += l.lost->value();
    t.migrations += l.migrations->value();
    t.rotations += l.rotations->value();
    t.bytes_tx += l.bytes_tx->value();
    if (l.crypto) {
      t.beacon_signs += l.crypto->signs->value();
      t.admit_hits += l.crypto->admit_hits->value();
      t.verify_enqueued += l.crypto->enqueued->value();
      t.verify_fail += l.crypto->verified_fail->value();
    }
  }
  t.cross_msgs = world_->messages();
  return t;
}

std::uint64_t MetroWorld::state_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ShardLocal& l : locals_) {
    h = fnv1a(h, l.vehicles.size());
    for (const CityVehicle& v : l.vehicles) {
      h = fnv1a(h, v.id);
      h = fnv1a(h, v.temp_id);
      h = fnv1a(h, v.rotations);
      h = fnv1a_d(h, v.x);
      h = fnv1a_d(h, v.y);
      h = fnv1a_d(h, v.vx);
      h = fnv1a_d(h, v.vy);
      h = fnv1a(h, v.t0.ns);
    }
  }
  return h;
}

double MetroWorld::bytes_per_vehicle() const {
  std::size_t bytes = 0;
  for (const ShardLocal& l : locals_) {
    bytes += l.vehicles.capacity() * sizeof(CityVehicle) + sizeof(ShardLocal);
  }
  bytes += world_->shard_count() * sizeof(sim::Shard);
  return cfg_.vehicles ? static_cast<double>(bytes) /
                             static_cast<double>(cfg_.vehicles)
                       : 0.0;
}

std::string MetroWorld::digest_json() const {
  const Totals t = totals();
  char buf[64];
  std::string out = "{\"config\":{";
  out += "\"vehicles\":" + std::to_string(cfg_.vehicles);
  auto add_d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", k, v);
    out += buf;
  };
  add_d("width_m", cfg_.width_m);
  add_d("height_m", cfg_.height_m);
  add_d("cell_m", cfg_.cell_m);
  add_d("range_m", cfg_.range_m);
  add_d("loss_prob", kLossProb);
  out += ",\"bsm_period_ns\":" + std::to_string(kBsmPeriod.ns);
  out += ",\"slots\":" + std::to_string(kSlots);
  out += ",\"epoch_ns\":" + std::to_string(cfg_.epoch.ns);
  out += ",\"pseudonym_period_ns\":" + std::to_string(cfg_.pseudonym_period.ns);
  out += ",\"seed\":" + std::to_string(cfg_.seed);
  out += cfg_.real_crypto ? ",\"real_crypto\":true" : ",\"real_crypto\":false";
  out += "},\"shards\":" + std::to_string(world_->shard_count());
  out += ",\"epochs\":" + std::to_string(world_->epochs());
  out += ",\"totals\":{";
  out += "\"bsm_tx\":" + std::to_string(t.bsm_tx);
  out += ",\"rx\":" + std::to_string(t.rx);
  out += ",\"rx_cross\":" + std::to_string(t.rx_cross);
  out += ",\"lost\":" + std::to_string(t.lost);
  out += ",\"migrations\":" + std::to_string(t.migrations);
  out += ",\"rotations\":" + std::to_string(t.rotations);
  out += ",\"bytes_tx\":" + std::to_string(t.bytes_tx);
  out += ",\"cross_msgs\":" + std::to_string(t.cross_msgs);
  out += ",\"beacon_signs\":" + std::to_string(t.beacon_signs);
  out += ",\"admit_hits\":" + std::to_string(t.admit_hits);
  out += ",\"verify_enqueued\":" + std::to_string(t.verify_enqueued);
  out += ",\"verify_fail\":" + std::to_string(t.verify_fail);
  out += "}";
  std::snprintf(buf, sizeof buf, ",\"state_hash\":\"%016llx\"",
                static_cast<unsigned long long>(state_hash()));
  out += buf;
  out += ",\"metrics\":" + world_->merged_metrics_json();
  out += "}";
  return out;
}

}  // namespace aseck::v2x
