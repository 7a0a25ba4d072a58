// Experiment E15 — resilience under deterministic fault injection
// (paper §3: safety/security/reliability interplay; §6: extensible systems
// must keep their assurance case under degraded channels).
//
// For each substrate (CAN, LIN, FlexRay, Ethernet, gateway, V2X, OTA) we run
// a seeded sim::FaultPlan random campaign at swept fault arrival rates and
// measure the paired resilience mechanism: CAN bus-off auto-recovery, the
// gateway's degraded-mode load shedding + partition handling, OTA
// retry-with-backoff resumable fetch, and plain window clearance for the
// frame-level channel faults. Reported per row: faults injected / recovered /
// unrecovered, recovery latency (mean, p95), and message loss.
//
// The run is bit-deterministic: `--seed N` (default 42) fixes every random
// draw, and the report contains no wall-clock time, so two runs with the
// same seed emit byte-identical output. The `determinism.e15` ctest runs this
// twice with `--smoke --seed 42`, compares the outputs, and fails on a nonzero
// exit code (= total unrecovered faults).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gateway/gateway.hpp"
#include "ivn/can.hpp"
#include "ivn/ethernet.hpp"
#include "ivn/flexray.hpp"
#include "ivn/lin.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"
#include "v2x/net.hpp"

using namespace aseck;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using sim::SimTime;
using sim::Telemetry;
using util::Bytes;

namespace {

struct RowResult {
  std::string substrate;
  double rate_hz = 0;
  std::size_t injected = 0;
  std::size_t recovered = 0;
  std::size_t unrecovered = 0;
  double recovery_ms_mean = 0;
  double recovery_ms_p95 = 0;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
};

// Mean/p95 recovery latency over the plan's recovered fault records.
void fill_recovery_stats(const FaultPlan& plan, RowResult& row) {
  std::vector<double> ms;
  for (const sim::FaultRecord& r : plan.records()) {
    if (r.recovered) ms.push_back(r.recovery_latency().ms());
  }
  row.injected = plan.injected();
  row.recovered = plan.recovered();
  row.unrecovered = plan.unrecovered();
  if (ms.empty()) return;
  double sum = 0;
  for (double v : ms) sum += v;
  row.recovery_ms_mean = sum / static_cast<double>(ms.size());
  std::sort(ms.begin(), ms.end());
  const std::size_t idx = std::min(
      ms.size() - 1, static_cast<std::size_t>(0.95 * static_cast<double>(ms.size())));
  row.recovery_ms_p95 = ms[idx];
}

struct Sink final : ivn::CanNode {
  using ivn::CanNode::CanNode;
  void on_frame(const ivn::CanFrame&, SimTime) override { ++rx; }
  void on_tx_done(const ivn::CanFrame&, SimTime) override {
    if (tx_done) tx_done();
  }
  std::uint64_t rx = 0;
  std::function<void()> tx_done;
};

ivn::CanFrame can_frame(std::uint32_t id) {
  ivn::CanFrame f;
  f.id = id;
  f.data = Bytes{0x01, 0x02, 0x03, 0x04};
  return f;
}

constexpr SimTime kCampaignStart = SimTime::from_s(1);
constexpr SimTime kFaultDuration = SimTime::from_ms(100);

RowResult run_can(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus bus(sched, "can0", 500'000, 0, t);
  bus.set_auto_recovery(SimTime::from_ms(50));
  Sink tx_node("tx"), rx_node("rx");
  bus.attach(&tx_node);
  bus.attach(&rx_node);
  FaultPlan plan(sched, seed, t);
  bus.set_fault_port(&plan.port("can0"));
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"can0", FaultKind::kFrameDrop, 1.0},
                        {"can0", FaultKind::kFrameCorrupt, 1.0},
                        {"can0", FaultKind::kCrash}});

  // Healthy-again observer: the first successful transmission outside a down
  // window marks the stateful (crash) faults recovered.
  tx_node.tx_done = [&] {
    if (!plan.port("can0").down()) plan.notify_recovered("can0");
  };

  std::uint64_t sent = 0;
  sim::PeriodicTask sender(
      sched, SimTime::from_ms(10),
      [&] {
        ++sent;
        if (tx_node.state() == ivn::CanNodeState::kBusOff) return;
        bus.send(&tx_node, can_frame(0x100));
      },
      SimTime::from_ms(10));
  sched.run_until(horizon + SimTime::from_s(2));
  sender.stop();

  RowResult row{"can", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = sent;
  row.lost = sent - rx_node.rx;
  return row;
}

RowResult run_lin(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  Telemetry t;
  ivn::LinMaster master(sched, "lin0", 19200, t);
  struct Slave final : ivn::LinSlave {
    std::optional<Bytes> respond(std::uint8_t) override {
      return Bytes{0xAA, 0xBB};
    }
  } slave;
  master.attach(&slave);
  master.set_schedule({{0x10, SimTime::from_ms(10)}});
  FaultPlan plan(sched, seed, t);
  master.set_fault_port(&plan.port("lin0"));
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"lin0", FaultKind::kFrameDrop, 1.0},
                        {"lin0", FaultKind::kFrameCorrupt, 1.0}});
  master.start();
  sched.run_until(horizon + SimTime::from_s(2));
  master.stop();

  RowResult row{"lin", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = master.frames_ok() + master.dropped_fault() + master.checksum_errors();
  row.lost = master.dropped_fault() + master.checksum_errors();
  return row;
}

RowResult run_flexray(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  Telemetry t;
  ivn::FlexRayBus bus(sched, "fr0", {}, t);
  struct Owner final : ivn::FlexRayNode {
    std::optional<Bytes> static_payload(std::uint16_t, std::uint8_t) override {
      return Bytes{0x01, 0x02};
    }
  } owner;
  struct Listener final : ivn::FlexRayNode {
    std::optional<Bytes> static_payload(std::uint16_t, std::uint8_t) override {
      return std::nullopt;
    }
    void on_frame(const ivn::FlexRayFrame&, SimTime) override { ++rx; }
    std::uint64_t rx = 0;
  } listener;
  bus.assign_static_slot(1, &owner);
  bus.attach_listener(&listener);
  FaultPlan plan(sched, seed, t);
  bus.set_fault_port(&plan.port("fr0"));
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"fr0", FaultKind::kFrameDrop, 1.0}});
  bus.start();
  sched.run_until(horizon + SimTime::from_s(2));
  bus.stop();

  RowResult row{"flexray", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = bus.static_frames() + bus.dropped_fault();
  row.lost = bus.dropped_fault();
  return row;
}

RowResult run_ethernet(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  Telemetry t;
  ivn::EthernetSwitch sw(sched, "sw0", 100'000'000, SimTime::from_us(5), t);
  struct Ep final : ivn::EthernetEndpoint {
    using ivn::EthernetEndpoint::EthernetEndpoint;
    void on_frame(const ivn::EthernetFrame&, SimTime) override { ++rx; }
    std::uint64_t rx = 0;
  } a("a", ivn::mac_from_u64(1)), b("b", ivn::mac_from_u64(2));
  const std::size_t pa = sw.connect(&a);
  const std::size_t pb = sw.connect(&b);
  FaultPlan plan(sched, seed, t);
  sw.set_fault_port(&plan.port("sw0"));
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"sw0", FaultKind::kFrameDrop, 1.0},
                        {"sw0", FaultKind::kFrameCorrupt, 1.0},
                        {"sw0", FaultKind::kFrameDuplicate, 1.0}});
  // Teach the FDB both directions before the campaign starts.
  {
    ivn::EthernetFrame f;
    f.src = b.mac();
    f.dst = ivn::kBroadcastMac;
    sw.send(pb, f);
  }
  std::uint64_t sent = 0;
  sim::PeriodicTask sender(
      sched, SimTime::from_ms(10),
      [&] {
        ++sent;
        ivn::EthernetFrame f;
        f.src = a.mac();
        f.dst = b.mac();
        f.payload = Bytes{0x10, 0x20, 0x30};
        sw.send(pa, f);
      },
      SimTime::from_ms(10));
  sched.run_until(horizon + SimTime::from_s(2));
  sender.stop();

  RowResult row{"ethernet", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = sent;
  row.lost = sw.dropped_fault() + sw.corrupted_fault();
  return row;
}

RowResult run_gateway(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus body(sched, "can.body", 500'000, 0, t);
  ivn::CanBus chassis(sched, "can.chassis", 500'000, 0, t);
  body.set_auto_recovery(SimTime::from_ms(50));
  chassis.set_auto_recovery(SimTime::from_ms(50));
  gateway::SecurityGateway gw(
      sched, "gw", gateway::SecurityGateway::kDefaultProcessingDelay, t);
  gw.add_domain("body", &body);
  gw.add_domain("chassis", &chassis);
  gw.add_route(0x100, "body", "chassis", /*safety_critical=*/true);
  gw.add_route(0x200, "body", "chassis", /*safety_critical=*/false);
  gateway::DegradedModeConfig cfg;
  cfg.window = SimTime::from_ms(200);
  cfg.degrade_threshold = 10;
  cfg.limp_threshold = 40;
  gw.enable_degraded_mode(cfg);
  gw.enable_bus_fault_watch();
  Sink sender("sender"), receiver("receiver");
  body.attach(&sender);
  chassis.attach(&receiver);

  FaultPlan plan(sched, seed, t);
  body.set_fault_port(&plan.port("can.body"));
  // Partition windows toggle the gateway link; the handler reports recovery
  // back to the plan the moment the link returns.
  plan.on("gw.body", FaultKind::kPartition,
          [&](const FaultSpec&, bool active) {
            gw.set_link_up("body", !active);
            if (!active) plan.notify_recovered("gw.body");
          });
  // The sender is the body bus's only transmitter, so its completed frames
  // are the bus's healthy-again signal.
  sender.tx_done = [&] {
    if (!plan.port("can.body").down()) plan.notify_recovered("can.body");
  };
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"gw.body", FaultKind::kPartition},
                        {"can.body", FaultKind::kFrameCorrupt, 1.0},
                        {"can.body", FaultKind::kFrameDrop, 1.0}});

  std::uint64_t sent = 0;
  sim::PeriodicTask traffic(
      sched, SimTime::from_ms(10),
      [&] {
        sent += 2;
        body.send(&sender, can_frame(0x100));
        body.send(&sender, can_frame(0x200));
      },
      SimTime::from_ms(10));
  sched.run_until(horizon + SimTime::from_s(2));
  traffic.stop();

  RowResult row{"gateway", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = sent;
  row.lost = sent - receiver.rx;
  return row;
}

RowResult run_v2x(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  v2x::V2xMedium medium(sched, 300.0, 0.0, seed);
  struct Radio final : v2x::V2xRadio {
    Radio(std::string n, v2x::Position p)
        : v2x::V2xRadio(std::move(n)), pos(p) {}
    v2x::Position position() const override { return pos; }
    void on_spdu(const v2x::Spdu&, SimTime) override { ++rx; }
    v2x::Position pos;
    std::uint64_t rx = 0;
  } tx("tx", {0, 0}), rx1("rx1", {20, 0}), rx2("rx2", {0, 30});
  medium.attach(&tx);
  medium.attach(&rx1);
  medium.attach(&rx2);
  FaultPlan plan(sched, seed);
  medium.set_fault_port(&plan.port("v2x"));
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"v2x", FaultKind::kRadioLoss},
                        {"v2x", FaultKind::kFrameDrop, 0.5}});
  sim::PeriodicTask beacons(
      sched, SimTime::from_ms(100),
      [&] { medium.broadcast(&tx, v2x::Spdu{}); }, SimTime::from_ms(100));
  sched.run_until(horizon + SimTime::from_s(2));
  beacons.stop();

  RowResult row{"v2x", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = medium.transmitted();
  row.lost = medium.lost_fault();
  return row;
}

RowResult run_ota(double rate_hz, std::uint64_t seed, SimTime horizon) {
  Scheduler sched;
  Telemetry t;
  crypto::Drbg rng{seed};
  ota::Repository director(rng, "director", SimTime::from_s(36000));
  ota::Repository images(rng, "image-repo", SimTime::from_s(36000));
  const Bytes fw(256 * 1024, 0xF2);
  director.add_target("brake-fw", fw, 2, "brake-hw");
  images.add_target("brake-fw", fw, 2, "brake-hw");
  director.publish(SimTime::from_ms(1));
  images.publish(SimTime::from_ms(1));
  FaultPlan plan(sched, seed, t);
  // Both repos share one fault target: an outage takes down the backend, not
  // a single mirror (the client falls back across mirrors otherwise).
  director.set_fault_port(&plan.port("ota"));
  images.set_fault_port(&plan.port("ota"));
  plan.random_campaign(kCampaignStart, horizon, rate_hz, kFaultDuration,
                       {{"ota", FaultKind::kOutage}});

  ota::FullVerificationClient client("primary", director.trusted_root(),
                                     images.trusted_root(), t);
  ota::FullVerificationClient::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = SimTime::from_ms(50);
  policy.chunk_bytes = 16 * 1024;
  policy.link_bytes_per_sec = 1'000'000;

  std::uint64_t fetches = 0, failures = 0;
  int attempts_total = 0;
  // Fetch in a loop: each completed update is followed by the next check,
  // so outages across the whole horizon meet live transfers.
  std::function<void()> start_fetch = [&] {
    if (sched.now() >= horizon) return;
    ++fetches;
    client.fetch_and_verify_with_retry(
        sched, director, images, "brake-fw", "brake-hw", 1, policy,
        [&](const ota::FullVerificationClient::RetryOutcome& ro) {
          attempts_total += ro.attempts;
          if (ro.outcome.error != ota::OtaError::kOk) ++failures;
          if (!plan.port("ota").down()) plan.notify_recovered("ota");
          sched.schedule_after(SimTime::from_ms(500), start_fetch);
        });
  };
  sched.schedule_at(SimTime::from_ms(500), start_fetch);
  sched.run_until(horizon + SimTime::from_s(2));
  // End-of-run health check covers outage windows injected after the last
  // transfer finished.
  if (director.available() && images.available()) plan.notify_recovered("ota");

  RowResult row{"ota", rate_hz};
  fill_recovery_stats(plan, row);
  row.sent = static_cast<std::uint64_t>(attempts_total);
  row.lost = static_cast<std::uint64_t>(attempts_total) - (fetches - failures);
  return row;
}

std::string rows_to_json(std::uint64_t seed, const std::vector<RowResult>& rows) {
  std::string out = "{\"experiment\":\"e15_resilience\",\"seed\":" +
                    std::to_string(seed) + ",\"rows\":[";
  char buf[320];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"substrate\":\"%s\",\"rate_hz\":%.2f,\"injected\":%zu,"
                  "\"recovered\":%zu,\"unrecovered\":%zu,"
                  "\"recovery_ms_mean\":%.3f,\"recovery_ms_p95\":%.3f,"
                  "\"sent\":%llu,\"lost\":%llu}",
                  i ? "," : "", r.substrate.c_str(), r.rate_hz, r.injected,
                  r.recovered, r.unrecovered, r.recovery_ms_mean,
                  r.recovery_ms_p95,
                  static_cast<unsigned long long>(r.sent),
                  static_cast<unsigned long long>(r.lost));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  bool& smoke = benchutil::smoke;
  if (const int rc = benchutil::parse_args(
          argc, argv, {{"--seed", &seed}, {"--smoke", &smoke}})) {
    return rc;
  }
  const std::vector<double> rates =
      smoke ? std::vector<double>{1.0} : std::vector<double>{0.2, 1.0, 5.0};
  const SimTime horizon = smoke ? SimTime::from_s(6) : SimTime::from_s(20);

  std::printf("E15: resilience under deterministic fault injection\n");
  std::printf("(seed %llu, horizon %llu s, fault windows of 100 ms)\n\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(horizon.ns / 1'000'000'000ULL));

  using RunFn = RowResult (*)(double, std::uint64_t, SimTime);
  const std::vector<RunFn> substrates = {run_can,      run_lin, run_flexray,
                                         run_ethernet, run_gateway, run_v2x,
                                         run_ota};

  benchutil::Table table({"substrate", "fault_rate_hz", "injected", "recovered",
                          "unrecovered", "recovery_ms_mean", "recovery_ms_p95",
                          "sent", "lost", "loss_%"});
  std::vector<RowResult> rows;
  std::uint64_t row_idx = 0;
  std::size_t total_unrecovered = 0;
  for (const double rate : rates) {
    for (const RunFn fn : substrates) {
      const RowResult r = fn(rate, seed * 1000 + row_idx, horizon);
      ++row_idx;
      total_unrecovered += r.unrecovered;
      const double loss_pct =
          r.sent ? 100.0 * static_cast<double>(r.lost) / static_cast<double>(r.sent)
                 : 0.0;
      table.add_row({r.substrate, benchutil::fmt("%.1f", r.rate_hz),
                     benchutil::fmt_u(r.injected), benchutil::fmt_u(r.recovered),
                     benchutil::fmt_u(r.unrecovered),
                     benchutil::fmt("%.2f", r.recovery_ms_mean),
                     benchutil::fmt("%.2f", r.recovery_ms_p95),
                     benchutil::fmt_u(r.sent), benchutil::fmt_u(r.lost),
                     benchutil::fmt("%.2f", loss_pct)});
      rows.push_back(r);
    }
  }
  table.print();
  std::printf("\n%s\n", rows_to_json(seed, rows).c_str());
  std::printf("\ntotal unrecovered faults: %zu\n", total_unrecovered);
  return benchutil::exit_status(total_unrecovered);
}
