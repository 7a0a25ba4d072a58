// vehicle_path: one vehicle's 4+1 message path under realistic bus load.
//
// `core::VehiclePlatform::reference()` with every domain bus at about 60 %
// load (periodic signals sized to 57 %, plus the traffic below). A roadside
// hazard runs the whole stack at
// 20 Hz, open loop, each one timed in sim time from its scheduled generation:
//
//   L1  the RSU-signed SPDU passes `v2x::verify_spdu` through a VerifyEngine
//       and costs `VehicleNode::kVerifyCostUs` of sim time;
//   L3  the TCU sends it SecOC-protected on the telematics bus;
//   L2  a safety-critical gateway route carries it telematics -> chassis;
//   L3  it crosses the chassis bus past an IDS tap;
//   L4  the brake ECU verifies the SecOC PDU.
//
// Around it: an infotainment spoofer sends the hazard id, diagnostics and an
// off-route id at 100 Hz (no-route and firewall drops), and 10 Hz 0x7DF
// diagnostics fan out from telematics behind a rate limit (rate drops). The
// IDS trains for 5 sim-s during set-up, hazard traffic included. Unlike the
// metros, the scheduler, CAN model, gateway and IDS do almost all host work
// here and ECDSA a small share.

#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/platform.hpp"
#include "ids/detectors.hpp"
#include "v2x/message.hpp"
#include "v2x/net.hpp"

namespace bench {
namespace {

namespace core = aseck::core;
namespace crypto = aseck::crypto;
namespace ids = aseck::ids;
namespace ivn = aseck::ivn;
namespace sim = aseck::sim;
namespace util = aseck::util;
namespace v2x = aseck::v2x;
using util::SimTime;

constexpr std::uint32_t kHazardId = 0x050;
constexpr std::uint16_t kHazardDataId = 0x0A5;
constexpr std::uint32_t kDiagId = 0x7DF;
constexpr std::uint32_t kOffRouteId = 0x0F0;
constexpr double kTargetLoad = 0.57;
constexpr SimTime kHazardPeriod = SimTime::from_ms(50);
constexpr SimTime kBudget = SimTime::from_ms(10);

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A transmitter with no receive logic: the rest-of-bus signal source, or
/// the infotainment spoofer.
class Sender final : public ivn::CanNode {
 public:
  using CanNode::CanNode;
  void on_frame(const ivn::CanFrame&, SimTime) override {}
};

class IdsTap final : public ivn::CanNode {
 public:
  IdsTap(ids::IdsEnsemble& ids, CallTimer& timer)
      : CanNode("ids-tap"), ids_(ids), timer_(timer) {}
  void on_frame(const ivn::CanFrame& f, SimTime at) override {
    if (training) {
      ids_.train(f, at);
    } else {
      timer_.time([&] { ids_.observe(f, at); });
    }
  }
  bool training = true;

 private:
  ids::IdsEnsemble& ids_;
  CallTimer& timer_;
};

class VehiclePathWorkload final : public Workload {
 public:
  VehiclePathWorkload(std::uint64_t seed, Size size)
      : seed_(seed),
        window_(SimTime::from_s(size == Size::kFull ? 5 : 2)),
        rng_(seed),
        authority_(crypto::EcdsaPrivateKey::generate(rng_)),
        rsu_key_(crypto::EcdsaPrivateKey::generate(rng_)),
        platform_(sched_, core::VehicleSpec::reference(), authority_.public_key(),
                  core::SecurityPolicy{}, seed),
        gateway_(platform_.gateway()),
        channel_(platform_.secoc_channel()),
        ids_(ids::make_extended_ensemble()),
        tap_(ids_, ids_timer_),
        spoofer_("infotainment-spoofer") {
    // A bounded flight recorder, as a long-running vehicle would keep.
    platform_.trace_bus().set_capacity(4096);
    ids_.bind_telemetry(platform_.telemetry());
    if (platform_.boot_all() != platform_.spec().ecus.size()) {
      throw std::runtime_error("vehicle_path: an ECU failed secure boot");
    }
    setup_gateway();
    setup_pki();
    setup_traffic();

    platform_.bus("chassis").attach(&tap_);
    platform_.ecu("brake").subscribe(
        kHazardId, [this](const ivn::CanFrame& f, SimTime at) { on_brake(f, at); });
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sched_, kHazardPeriod, [this] { send_hazard(); },
        SimTime::from_us(mix(seed_ ^ 0x4a2) % 50000)));

    // IDS training on live traffic, hazards included.
    now_ = SimTime::from_s(size == Size::kFull ? 5 : 1);
    sched_.run_until(now_);
    ids_.finish_training();
    tap_.training = false;
  }

  void run_window() override {
    now_ += window_;
    sched_.run_until(now_);
  }
  double window_veh_sim_s() const override { return window_.seconds(); }
  // 120 sim-s: 2400 hazards, so the p99 has 24 samples beyond it.
  int digest_windows() const override { return 24; }

  void set_tracing(bool on) override {
    v2x_timer_.set_enabled(on);
    secoc_timer_.set_enabled(on);
    ids_timer_.set_enabled(on);
  }
  Counters busy_s() const override {
    return {{"v2x.busy_share", v2x_timer_.seconds()},
            {"ivn.secoc_busy_share", secoc_timer_.seconds()},
            {"ids.busy_share", ids_timer_.seconds()}};
  }

  Counters counters() const override {
    const aseck::gateway::GatewayStats gs = gateway_.stats();
    const sim::MetricsRegistry& m = *platform_.telemetry().metrics;
    Counters c = {
        {"sim.sim_ns", static_cast<double>(sched_.now().ns)},
        {"sim.events", static_cast<double>(sched_.executed())},
        {"v2x.bsm_tx", static_cast<double>(hazards_.size())},
        {"v2x.rx", static_cast<double>(spdu_ok_)},
        {"crypto.signs", static_cast<double>(hazards_.size())},
        {"crypto.verify.primitive", static_cast<double>(engine_.primitive_calls())},
        {"crypto.verify.cache_hits", static_cast<double>(engine_.cache_hits())},
        {"crypto.verify.batched", static_cast<double>(engine_.batched_calls())},
        {"ivn.secoc_fail", static_cast<double>(secoc_fail_)},
        {"gateway.frames_seen", static_cast<double>(gateway_.frames_seen())},
        {"gateway.forwarded", static_cast<double>(gs.forwarded)},
        {"gateway.dropped.no_route", static_cast<double>(gs.dropped_no_route)},
        {"gateway.dropped.firewall", static_cast<double>(gs.dropped_firewall)},
        {"gateway.dropped.rate", static_cast<double>(gs.dropped_rate)},
        {"ids.observed", static_cast<double>(m.counter_value("ids.observed"))},
        {"ids.alerts", static_cast<double>(m.counter_value("ids.alerts"))},
    };
    double frames = 0;
    for (const ivn::CanBus* bus : buses_) {
      const ivn::CanBusStats s = bus->stats();
      frames += static_cast<double>(s.frames_ok);
      c["ivn.busy_ns." + bus->name()] = static_cast<double>(s.busy_time.ns);
    }
    c["ivn.frames_ok"] = frames;
    return c;
  }

  std::string digest() const override {
    std::string out = "vehicle_path seed=" + std::to_string(seed_) + " latency_ns=";
    for (const Hazard& h : hazards_) {
      out += h.delivered ? std::to_string((h.delivered_at - h.generated).ns) : "lost";
      out += ',';
    }
    for (const auto& [k, v] : counters()) {
      out += ' ' + k + '=' + json_number(v);
    }
    return out;
  }

  std::vector<Metric> sim_metrics() const override {
    std::vector<double> us;
    for (const Hazard& h : settled()) {
      if (h.delivered) us.push_back((h.delivered_at - h.generated).us());
    }
    const Outcome o = outcome();
    const auto n = static_cast<std::uint64_t>(us.size());
    return {{"hazard_latency_p50_us", percentile(us, 0.50), "sim_us", n},
            {"hazard_latency_p99_us", percentile(us, 0.99), "sim_us", n},
            {"fail_ratio",
             o.attempted ? static_cast<double>(o.failed) / static_cast<double>(o.attempted) : 0,
             "ratio", o.attempted}};
  }

  Outcome outcome() const override {
    Outcome o;
    for (const Hazard& h : settled()) {
      ++o.attempted;
      if (!h.delivered || h.delivered_at - h.generated > kBudget) ++o.failed;
    }
    if (o.failed) o.violations.push_back("vehicle_path: hazard rejected, lost or late");
    if (secoc_fail_) o.violations.push_back("vehicle_path: SecOC verify failed at the brake");
    if (o.attempted == 0) o.violations.push_back("vehicle_path: no hazards sent");
    return o;
  }

 private:
  struct Hazard {
    SimTime generated;
    bool delivered = false;
    SimTime delivered_at;
  };

  /// Hazards whose budget has elapsed by now: delivered or not, they count.
  std::vector<Hazard> settled() const {
    std::vector<Hazard> out;
    for (const Hazard& h : hazards_) {
      if (h.generated + kBudget <= sched_.now()) out.push_back(h);
    }
    return out;
  }

  void setup_gateway() {
    aseck::gateway::SecurityGateway& gw = platform_.gateway();
    gw.add_route(kHazardId, "telematics", "chassis", /*safety_critical=*/true);
    // Head-unit diagnostics path, closed by the firewall.
    gw.add_route(kDiagId, "infotainment", "powertrain");
    aseck::gateway::FirewallRule deny;
    deny.from_domain = "infotainment";
    deny.id_min = 0x700;
    deny.id_max = 0x7FF;
    gw.add_rule(deny);
    gw.set_rate_limit("telematics", kDiagId, aseck::gateway::RateLimit{8.0, 2.0});
  }

  void setup_pki() {
    const SimTime until = SimTime::from_s(1000000);
    const auto root = v2x::CertificateAuthority::make_root(rng_, "root-ca", until);
    const auto pca = v2x::CertificateAuthority::make_sub(rng_, "rsu-ca", root, until);
    trust_.add_root(root.certificate());
    trust_.add_intermediate(pca.certificate());
    trust_.set_verify_engine(&engine_);
    rsu_cert_ = pca.issue("rsu-0", rsu_key_.public_key(),
                          {v2x::Psid::kRoadsideAlert}, SimTime::zero(), until);
  }

  /// Periodic signals on every domain up to the target load, seed-phased;
  /// plus the spoofer and the telematics diagnostics.
  void setup_traffic() {
    static constexpr std::uint64_t kPeriodsMs[] = {10, 10, 20, 20, 50, 100};
    std::uint32_t base = 0x100;
    for (const auto& d : platform_.spec().domains) {
      ivn::CanBus& bus = platform_.bus(d.name);
      buses_.push_back(&bus);
      senders_.push_back(std::make_unique<Sender>(d.name + "-signals"));
      Sender* node = senders_.back().get();
      bus.attach(node);
      double load = 0;
      for (std::size_t i = 0; load < kTargetLoad; ++i, ++base) {
        const SimTime period = SimTime::from_ms(kPeriodsMs[i % 6]);
        ivn::CanFrame probe;
        probe.id = base;
        probe.data.assign(8, 0x5a);
        load += static_cast<double>(bus.frame_time(probe).ns) /
                static_cast<double>(period.ns);
        const std::uint32_t id = base;
        const std::uint64_t salt = mix(seed_ ^ (static_cast<std::uint64_t>(id) << 20));
        auto counter = std::make_shared<std::uint64_t>(0);
        tasks_.push_back(std::make_unique<sim::PeriodicTask>(
            sched_, period,
            [&bus, node, id, salt, counter] {
              ivn::CanFrame f;
              f.id = id;
              const std::uint64_t v = mix(salt + (*counter)++);
              f.data.resize(8);
              for (int b = 0; b < 8; ++b) f.data[b] = static_cast<std::uint8_t>(v >> (8 * b));
              bus.send(node, std::move(f));
            },
            SimTime::from_us(salt % (period.ns / 1000))));
      }
      base = (base + 0x80) & ~0x7Fu;
    }

    ivn::CanBus& info = platform_.bus("infotainment");
    info.attach(&spoofer_);
    auto spoof_n = std::make_shared<std::uint64_t>(0);
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sched_, SimTime::from_ms(10),
        [&info, this, spoof_n] {
          static constexpr std::uint32_t kIds[] = {kHazardId, kDiagId, kOffRouteId};
          ivn::CanFrame f;
          f.id = kIds[(*spoof_n)++ % 3];
          f.data.assign(8, 0xEE);
          info.send(&spoofer_, std::move(f));
        },
        SimTime::from_us(mix(seed_ ^ 0x5f0) % 10000)));

    aseck::ecu::Ecu& tcu = platform_.ecu("tcu");
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sched_, SimTime::from_ms(100),
        [&tcu] { tcu.send_frame(kDiagId, {0x02, 0x01, 0x0D, 0, 0, 0, 0, 0}); },
        SimTime::from_us(mix(seed_ ^ 0xd1a) % 100000)));
  }

  void send_hazard() {
    const SimTime now = sched_.now();
    const auto k = static_cast<std::uint32_t>(hazards_.size());
    hazards_.push_back({now, false, SimTime::zero()});
    util::Bytes payload;
    util::append_be(payload, k, 4);
    util::append_be(payload, mix(seed_ + k), 4);
    const v2x::VerifyStatus st = v2x_timer_.time([&] {
      const v2x::Spdu spdu =
          v2x::Spdu::sign(v2x::Psid::kRoadsideAlert, now, payload, rsu_cert_, rsu_key_);
      return v2x::verify_spdu(spdu, trust_, now, v2x::VerifyPolicy{}, nullptr,
                              nullptr, &engine_);
    });
    if (st != v2x::VerifyStatus::kOk) return;
    ++spdu_ok_;
    sched_.schedule_in(
        SimTime::from_ns(static_cast<std::uint64_t>(v2x::VehicleNode::kVerifyCostUs * 1000)),
        [this, payload] {
          secoc_timer_.time([&] {
            platform_.ecu("tcu").send_secured(channel_, kHazardDataId, kHazardId, payload);
          });
        });
  }

  void on_brake(const ivn::CanFrame& f, SimTime at) {
    const ivn::SecOcChannel::VerifyResult r = secoc_timer_.time([&] {
      return platform_.ecu("brake").verify_secured(channel_, kHazardDataId, f.data);
    });
    if (r.status != ivn::SecOcStatus::kOk || r.payload.size() < 4) {
      ++secoc_fail_;
      return;
    }
    const std::uint32_t k = util::load_be32(r.payload.data());
    if (k < hazards_.size() && !hazards_[k].delivered) {
      hazards_[k].delivered = true;
      hazards_[k].delivered_at = at;
    }
  }

  const std::uint64_t seed_;
  const SimTime window_;
  SimTime now_;
  crypto::Drbg rng_;
  sim::Scheduler sched_;
  crypto::EcdsaPrivateKey authority_;
  crypto::EcdsaPrivateKey rsu_key_;
  core::VehiclePlatform platform_;
  const aseck::gateway::SecurityGateway& gateway_;
  std::vector<const ivn::CanBus*> buses_;
  ivn::SecOcChannel channel_;
  CallTimer v2x_timer_, secoc_timer_, ids_timer_;
  ids::IdsEnsemble ids_;
  IdsTap tap_;
  Sender spoofer_;
  std::vector<std::unique_ptr<Sender>> senders_;
  v2x::TrustStore trust_;
  crypto::VerifyEngine engine_;
  v2x::Certificate rsu_cert_;
  std::vector<Hazard> hazards_;
  std::uint64_t spdu_ok_ = 0;
  std::uint64_t secoc_fail_ = 0;
  // Last: tasks reference everything above and must stop first.
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_vehicle_path(std::uint64_t seed, Size size) {
  return std::make_unique<VehiclePathWorkload>(seed, size);
}

}  // namespace bench
