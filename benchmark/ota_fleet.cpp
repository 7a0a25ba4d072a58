// ota_fleet: fleet update campaigns through the storm-hardened serving front.
//
// `ota::CampaignRunner` behind `ota::RepositoryServer` with admission control
// on (E21's server settings). Every window publishes the next image version
// — 64 KiB, differing from the installed one in a single 4 KiB region, served
// as block deltas — and the whole fleet updates in waves, closed loop: a
// vehicle's next request waits for its previous response. Each vehicle has
// its own journaled `Flash` with a kPowerLoss fault at p = 0.01 per write
// op, so updates survive power cuts by reboot-and-resume; 32 background
// metadata pollers run at 20 Hz and honour retry-after. This is the only
// workload that writes ECU flash and runs journal recovery, and its crypto
// is SHA-256 plus metadata verification rather than beacon verification.

#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "ecu/flash.hpp"
#include "ota/campaign.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "ota/server.hpp"
#include "sim/faultplan.hpp"

namespace bench {
namespace {

namespace crypto = aseck::crypto;
namespace ecu = aseck::ecu;
namespace ota = aseck::ota;
namespace sim = aseck::sim;
namespace util = aseck::util;
using util::SimTime;

constexpr std::size_t kImageBytes = 64 * 1024;
constexpr std::size_t kDeltaBytes = 4 * 1024;
constexpr const char* kImage = "vecu-fw";
constexpr const char* kHardware = "vecu-hw";
constexpr std::size_t kPollers = 32;
constexpr double kPowerLossP = 0.01;

class OtaFleetWorkload final : public Workload {
 public:
  OtaFleetWorkload(std::uint64_t seed, Size size)
      : seed_(seed),
        fleet_(size == Size::kFull ? 256 : 32),
        wave_(size == Size::kFull ? 64 : 8),
        window_(SimTime::from_s(40)),
        rng_(seed),
        director_(rng_, "director", SimTime::from_s(100000000)),
        images_(rng_, "image-repo", SimTime::from_s(100000000)),
        plan_(sched_, seed) {
    image_.resize(kImageBytes);
    for (std::size_t i = 0; i < kImageBytes; ++i) {
      image_[i] = static_cast<std::uint8_t>((i * 131 + seed) & 0xFF);
    }
    director_.add_target(kImage, image_, version_, kHardware);
    images_.add_target(kImage, image_, version_, kHardware);
    director_.publish(SimTime::from_ms(1));
    images_.publish(SimTime::from_ms(1));

    ota::ServerConfig scfg;
    scfg.metadata_service = SimTime::from_ms(2);
    scfg.chunk_service = SimTime::from_ms(2);
    scfg.cache_hit_service = SimTime::from_us(250);
    scfg.delta_cpu_factor = 3.0;
    scfg.max_queue_delay = SimTime::from_ms(20);
    scfg.background_rps = 400;
    scfg.tier_window = SimTime::from_ms(100);
    scfg.retry_slot = SimTime::from_ms(5);
    scfg.outage_retry_base = SimTime::from_ms(300);
    server_ = std::make_unique<ota::RepositoryServer>(director_, images_, scfg);

    const ecu::FirmwareImage installed{kImage, version_, image_};
    for (std::size_t i = 0; i < fleet_; ++i) {
      const std::string id = "vm" + std::to_string(i);
      flashes_.push_back(std::make_unique<ecu::Flash>());
      flashes_.back()->provision(installed);
      ports_.push_back(&plan_.port(id + ".flash"));
      flashes_.back()->set_fault_port(ports_.back());
      sim::FaultSpec cut;
      cut.target = id + ".flash";
      cut.kind = sim::FaultKind::kPowerLoss;
      cut.probability = kPowerLossP;
      plan_.window(SimTime::zero(), SimTime::from_s(100000000), cut);
      clients_.push_back(std::make_unique<ota::FullVerificationClient>(
          id, director_.trusted_root(), images_.trusted_root()));
    }

    poll_ = [this] {
      const ota::MetadataResponse r = poll_timer_.time(
          [&] { return server_->fetch_metadata(ota::ServeClass::kBackground, sched_.now()); });
      SimTime next = SimTime::from_ms(50);
      if (r.status != ota::ServeStatus::kOk) next = std::max(next, r.retry_after);
      sched_.schedule_after(next, [this] { poll_(); });
    };
    for (std::size_t j = 0; j < kPollers; ++j) {
      sched_.schedule_at(SimTime::from_ms(5 + 7 * j), [this] { poll_(); });
    }
    now_ = SimTime::from_ms(2);
    sched_.run_until(now_);
  }

  void run_window() override {
    const ecu::FirmwareImage base{kImage, version_, image_};
    ++version_;
    const std::size_t region = (seed_ + version_) % (kImageBytes / kDeltaBytes);
    for (std::size_t i = 0; i < kDeltaBytes; ++i) {
      image_[region * kDeltaBytes + i] ^= static_cast<std::uint8_t>(0xA5 + version_);
    }
    director_.add_target(kImage, image_, version_, kHardware);
    images_.add_target(kImage, image_, version_, kHardware);
    director_.publish(now_);
    images_.publish(now_);
    server_->register_delta_base(kImage, base.code);

    ota::CampaignConfig cfg;
    cfg.wave_size = wave_;
    cfg.wave_gap = SimTime::from_s(1);
    cfg.vehicle_stagger = SimTime::from_ms(10);
    cfg.wave_abort_ratio = 2.0;  // never abort: every vehicle must land
    cfg.max_reboots = 12;
    cfg.reboot_delay = SimTime::from_s(2);
    cfg.confirm_timeout = SimTime::from_s(30);
    cfg.retry.max_attempts = 12;
    cfg.retry.initial_backoff = SimTime::from_ms(100);
    cfg.retry.chunk_bytes = 16 * 1024;
    cfg.retry.link_bytes_per_sec = 2'000'000;
    cfg.retry.server = server_.get();
    campaigns_.push_back(std::make_unique<ota::CampaignRunner>(
        sched_, director_, images_, kImage, kHardware, cfg));
    ota::CampaignRunner& camp = *campaigns_.back();
    for (std::size_t i = 0; i < fleet_; ++i) {
      camp.add_vehicle("vm" + std::to_string(i), *flashes_[i], *clients_[i]);
    }
    starts_.push_back(now_);
    camp.start();
    now_ += window_;
    sched_.run_until(now_);
    finished_.push_back(camp.finished());
  }

  double window_veh_sim_s() const override {
    return static_cast<double>(fleet_) * window_.seconds();
  }
  // 8 campaigns x 256 vehicles: the update-time p99 has 20 samples beyond it.
  int digest_windows() const override { return 8; }

  void set_tracing(bool on) override { poll_timer_.set_enabled(on); }
  Counters busy_s() const override {
    return {{"ota.poller_busy_share", poll_timer_.seconds()}};
  }

  Counters counters() const override {
    double primitive = 0, hits = 0, write_ops = 0;
    for (std::size_t i = 0; i < fleet_; ++i) {
      primitive += static_cast<double>(clients_[i]->verify_engine().primitive_calls());
      hits += static_cast<double>(clients_[i]->verify_engine().cache_hits());
      write_ops += static_cast<double>(ports_[i]->write_ops());
    }
    double power = 0, resume = 0, recovery = 0, sessions = 0, updated = 0;
    for (const auto& camp : campaigns_) {
      updated += static_cast<double>(camp->updated());
      for (const ota::VehicleLedger& l : camp->ledger()) {
        power += l.power_losses;
        resume += static_cast<double>(l.resume_bytes_saved);
        recovery += l.recovery_us;
        sessions += l.fetch_sessions;
      }
    }
    const ota::RepositoryServer& s = *server_;
    return {
        {"sim.sim_ns", static_cast<double>(sched_.now().ns)},
        {"sim.events", static_cast<double>(sched_.executed())},
        {"crypto.verify.primitive", primitive},
        {"crypto.verify.cache_hits", hits},
        // Estimate: every confirmed image was hashed once in full.
        {"crypto.sha256_kib", updated * kImageBytes / 1024.0},
        {"ecu.power_losses", power},
        {"ecu.flash_write_ops", write_ops},
        {"ecu.resume_bytes_saved", resume},
        {"ecu.recovery_us", recovery},
        {"ota.requests", static_cast<double>(s.requests())},
        {"ota.served", static_cast<double>(s.served())},
        {"ota.shed", static_cast<double>(s.shed())},
        {"ota.cache_hits", static_cast<double>(s.cache_hits())},
        {"ota.cache_misses", static_cast<double>(s.cache_misses())},
        {"ota.bytes_sent", static_cast<double>(s.bytes_sent())},
        {"ota.delta_bytes_saved", static_cast<double>(s.delta_bytes_saved())},
        {"ota.max_queue_ms", s.max_queue_delay_seen().ms()},
        {"ota.fetch_sessions", sessions},
        {"ota.updates", updated},
    };
  }

  std::string digest() const override {
    std::string out = "ota_fleet seed=" + std::to_string(seed_);
    for (const auto& camp : campaigns_) out += ' ' + camp->to_json();
    for (const auto& [k, v] : counters()) out += ' ' + k + '=' + json_number(v);
    return out;
  }

  std::vector<Metric> sim_metrics() const override {
    std::vector<double> s;
    for (std::size_t w = 0; w < campaigns_.size(); ++w) {
      for (const ota::VehicleLedger& l : campaigns_[w]->ledger()) {
        if (l.outcome == ota::VehicleOutcome::kUpdated ||
            l.outcome == ota::VehicleOutcome::kUpdatedAfterPowerLoss) {
          s.push_back((l.finished_at - starts_[w]).seconds());
        }
      }
    }
    const Outcome o = outcome();
    const auto n = static_cast<std::uint64_t>(s.size());
    return {{"update_time_p50_s", percentile(s, 0.50), "sim_s", n},
            {"update_time_p99_s", percentile(s, 0.99), "sim_s", n},
            {"fail_ratio",
             o.attempted ? static_cast<double>(o.failed) / static_cast<double>(o.attempted) : 0,
             "ratio", o.attempted}};
  }

  Outcome outcome() const override {
    Outcome o;
    std::size_t bricked = 0;
    for (const auto& camp : campaigns_) {
      o.attempted += fleet_;
      o.failed += fleet_ - camp->updated();
      bricked += camp->bricked();
    }
    for (const bool f : finished_) {
      if (!f) o.violations.push_back("ota_fleet: a campaign overran its window");
    }
    if (bricked) o.violations.push_back("ota_fleet: bricked vehicles");
    if (o.failed) o.violations.push_back("ota_fleet: vehicles not updated");
    for (const auto& f : flashes_) {
      const ecu::FirmwareImage* a = f->active();
      if (!a || a->version != version_ || a->code != image_) {
        o.violations.push_back("ota_fleet: a flash does not run the latest image");
        break;
      }
    }
    if (o.attempted == 0) o.violations.push_back("ota_fleet: no campaign ran");
    return o;
  }

 private:
  const std::uint64_t seed_;
  const std::size_t fleet_;
  const std::size_t wave_;
  const SimTime window_;
  SimTime now_;
  std::uint32_t version_ = 1;
  util::Bytes image_;
  crypto::Drbg rng_;
  sim::Scheduler sched_;
  ota::Repository director_, images_;
  sim::FaultPlan plan_;
  std::unique_ptr<ota::RepositoryServer> server_;
  std::vector<std::unique_ptr<ecu::Flash>> flashes_;
  std::vector<sim::FaultPort*> ports_;
  std::vector<std::unique_ptr<ota::FullVerificationClient>> clients_;
  std::vector<std::unique_ptr<ota::CampaignRunner>> campaigns_;
  std::vector<SimTime> starts_;
  std::vector<bool> finished_;
  CallTimer poll_timer_;
  std::function<void()> poll_;
};

}  // namespace

std::unique_ptr<Workload> make_ota_fleet(std::uint64_t seed, Size size) {
  return std::make_unique<OtaFleetWorkload>(seed, size);
}

}  // namespace bench
