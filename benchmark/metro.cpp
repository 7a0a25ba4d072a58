// metro_churn and metro_steady: the E19 metro (`v2x::MetroWorld`, genuine
// ECDSA-P256 receive path) on the sharded world.
//
// Both build the same fleet at E19 density (~250 vehicles/km^2, 500 m shard
// cells) and run the cold start — every vehicle signs its first beacon and
// every shard derives and batch-verifies its neighbours' keys — as set-up, up
// to t = 0.625 s. They differ only in the pseudonym period:
//
//  * churn (5 s period): each 0.3125 sim-s window, aligned to the period/16
//    rotation-phase grid, holds exactly one rotation phase, so a sixteenth
//    of the fleet re-signs and every neighbourhood re-verifies per window.
//    The crypto layer does most of the work here.
//  * steady (3600 s period): no rotations, so after the cold start almost
//    every reception is an admitted-cache hit and host time goes to the
//    sharded world itself: receive scans, cross-shard merges, epoch
//    barriers. A crypto-only change moves it far less than churn (only the
//    beacons of migrating vehicles still need verifying).
//
// Windows are short (~0.3 s of host time) so a run holds dozens of them and
// the window median shrugs off a noisy neighbour.

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "v2x/citynet.hpp"

namespace bench {
namespace {

namespace v2x = aseck::v2x;
using aseck::util::SimTime;

class MetroWorkload final : public Workload {
 public:
  MetroWorkload(std::uint64_t seed, bool churn, Size size, unsigned threads)
      : window_(churn ? SimTime::from_us(312500) : SimTime::from_ms(2500)) {
    v2x::MetroConfig cfg;
    cfg.vehicles = size == Size::kFull ? 5000 : 400;
    cfg.seed = seed;
    cfg.threads = threads == 0 ? 2 : threads;
    cfg.real_crypto = true;
    cfg.pseudonym_period = churn ? SimTime::from_s(5) : SimTime::from_s(3600);
    // E19 density: a 20 km square per 100k vehicles, snapped to the cell.
    const double side =
        std::sqrt(static_cast<double>(cfg.vehicles) / 100000.0) * 20000.0;
    cfg.width_m = cfg.height_m =
        std::max(1000.0, std::round(side / cfg.cell_m) * cfg.cell_m);
    metro_ = std::make_unique<v2x::MetroWorld>(cfg);
    now_ = SimTime::from_ms(625);
    metro_->run_until(now_);
  }

  void run_window() override {
    now_ += window_;
    metro_->run_until(now_);
  }

  double window_veh_sim_s() const override {
    return static_cast<double>(metro_->config().vehicles) * window_.seconds();
  }
  int digest_windows() const override { return 12; }
  unsigned threads() const override { return metro_->config().threads; }

  Counters counters() const override {
    const v2x::MetroWorld::Totals t = metro_->totals();
    aseck::sim::MetricsRegistry merged;
    metro_->world().merge_metrics(merged);
    double events = 0;
    for (std::uint32_t i = 0; i < metro_->world().shard_count(); ++i) {
      events += static_cast<double>(metro_->world().shard(i).sched().executed());
    }
    const auto c = [&](const char* name) {
      return static_cast<double>(merged.counter_value(name));
    };
    const double primitive = c("crypto.verify.primitive");
    return {
        {"sim.sim_ns", static_cast<double>(now_.ns)},
        {"sim.events", events},
        {"sim.epochs", static_cast<double>(metro_->world().epochs())},
        {"sim.cross_msgs", static_cast<double>(t.cross_msgs)},
        {"v2x.bsm_tx", static_cast<double>(t.bsm_tx)},
        {"v2x.rx", static_cast<double>(t.rx)},
        {"v2x.rx_cross", static_cast<double>(t.rx_cross)},
        {"v2x.lost", static_cast<double>(t.lost)},
        {"v2x.migrations", static_cast<double>(t.migrations)},
        {"v2x.rotations", static_cast<double>(t.rotations)},
        {"crypto.signs", static_cast<double>(t.beacon_signs)},
        {"crypto.enqueued", static_cast<double>(t.verify_enqueued)},
        {"crypto.admit_hits", static_cast<double>(t.admit_hits)},
        {"crypto.verify.primitive", primitive},
        {"crypto.verify.cache_hits", c("crypto.verify.cache_hits")},
        {"crypto.verify.batched", c("crypto.verify.batched")},
        // Estimate: a signer derives its rotation key, and a shard derives a
        // sender's public key once per beacon it first sees — the same
        // events that reach a primitive verify.
        {"crypto.key_derives", static_cast<double>(t.beacon_signs) + primitive},
    };
  }

  std::string digest() const override { return metro_->digest_json(); }

  Outcome outcome() const override {
    const v2x::MetroWorld::Totals t = metro_->totals();
    Outcome o;
    o.attempted = t.rx;
    o.failed = t.verify_fail;
    if (t.verify_fail != 0) o.violations.push_back("metro: verify_fail != 0");
    if (t.admit_hits + t.verify_enqueued != t.rx) {
      o.violations.push_back("metro: a reception skipped the beacon check");
    }
    if (t.rx == 0) o.violations.push_back("metro: no receptions");
    return o;
  }

 private:
  const SimTime window_;
  SimTime now_;
  std::unique_ptr<v2x::MetroWorld> metro_;
};

}  // namespace

std::unique_ptr<Workload> make_metro(std::uint64_t seed, bool churn, Size size,
                                     unsigned threads) {
  return std::make_unique<MetroWorkload>(seed, churn, size, threads);
}

}  // namespace bench
