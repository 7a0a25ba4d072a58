// Experiment E16 — health supervision & redundant failover (paper §6
// optimization-vs-extensibility and §7 assurance architecture: faults must
// be *detected and isolated*, and the detection machinery itself costs
// bus/CPU budget).
//
// Scenario per row: a hot-standby gateway::RedundantGateway carries
// safety-critical traffic between two CAN domains while a seeded
// sim::FaultPlan crash campaign repeatedly kills the active unit. A
// safety::HealthSupervisor watches gateway heartbeats (alive supervision,
// reference cycle = 5 heartbeat periods, one tolerated FAILED cycle); on
// expiry its reset handler promotes the standby, and the repaired unit
// rejoins as the new standby when the fault window clears. Each row sweeps
// the heartbeat period and reports the paper's trade-off triangle:
//
//   * detection latency  (crash -> supervisor expiry -> failover),
//   * switchover downtime in frames lost (the standby's shadow pipeline
//     counts what it would have forwarded during the gap),
//   * supervision overhead (heartbeat + supervision-cycle events, and the
//     heartbeat share of total frame traffic if the beats rode the bus).
//
// Every row also replays the identical campaign with the supervisor
// disabled: crashed units then stay down (nobody resets them), so the
// campaign ends with every crash unrecovered — the supervised runs must end
// with zero. The run is bit-deterministic: `--seed N` (default 42) fixes
// every draw and the report contains no wall-clock time, so the
// `determinism.e16` ctest runs `--smoke --seed 42` twice and compares them.
// Exit code = unrecovered faults across the supervised runs.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gateway/redundant.hpp"
#include "ivn/can.hpp"
#include "safety/supervisor.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

using namespace aseck;
using safety::AliveSupervision;
using safety::EscalationPolicy;
using safety::HealthSupervisor;
using safety::HeartbeatEmitter;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::Scheduler;
using sim::SimTime;
using sim::Telemetry;
using util::Bytes;

namespace {

constexpr SimTime kCampaignStart = SimTime::from_s(1);
constexpr SimTime kCrashDuration = SimTime::from_ms(500);
constexpr SimTime kTrafficPeriod = SimTime::from_ms(2);

struct RowResult {
  double hb_ms = 0;
  std::size_t crashes = 0;
  std::uint64_t failovers = 0;
  double detect_ms_mean = 0;
  double frames_lost_mean = 0;
  std::size_t unrecovered_sup = 0;
  std::size_t unrecovered_unsup = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t sup_cycles = 0;
  double overhead_pct = 0;  // heartbeat share of total frame traffic
  std::uint64_t sent = 0;
  std::uint64_t lost_sup = 0;
  std::uint64_t lost_unsup = 0;
};

struct RunOutcome {
  std::size_t injected = 0;
  std::size_t unrecovered = 0;
  std::uint64_t failovers = 0;
  std::vector<double> detect_ms;
  std::vector<double> frames_lost;
  std::uint64_t heartbeats = 0;
  std::uint64_t sup_cycles = 0;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

struct Sink final : ivn::CanNode {
  using ivn::CanNode::CanNode;
  void on_frame(const ivn::CanFrame&, SimTime) override { ++rx; }
  std::uint64_t rx = 0;
};

RunOutcome run_once(SimTime hb_period, double crash_rate_hz, std::uint64_t seed,
                    SimTime horizon, bool supervised) {
  Scheduler sched;
  Telemetry t;
  ivn::CanBus body(sched, "can.body", 500'000, 0, t);
  ivn::CanBus chassis(sched, "can.chassis", 500'000, 0, t);
  gateway::RedundantGateway rgw(
      sched, "gw", gateway::SecurityGateway::kDefaultProcessingDelay, t);
  rgw.add_domain("body", &body);
  rgw.add_domain("chassis", &chassis);
  rgw.add_route(0x100, "body", "chassis", /*safety_critical=*/true);
  rgw.start_sync(SimTime::from_ms(50));
  Sink sender("sender"), receiver("receiver");
  body.attach(&sender);
  chassis.attach(&receiver);

  FaultPlan plan(sched, seed, t);
  // Crash semantics: a dead unit stays dead until something restarts it.
  // With supervision, the watchdog failover restores service and the window
  // end models the repaired unit rebooting and rejoining as standby (which
  // closes the fault record). Without supervision, nobody reboots anything.
  plan.on("gw.active", FaultKind::kCrash, [&](const FaultSpec&, bool active) {
    if (active) {
      rgw.set_active_down(true);
    } else if (supervised && !plan.port("gw.active").down()) {
      rgw.set_active_down(false);
      plan.notify_recovered("gw.active");
    }
  });
  plan.random_campaign(kCampaignStart, horizon, crash_rate_hz, kCrashDuration,
                       {{"gw.active", FaultKind::kCrash}});

  RunOutcome out;
  HealthSupervisor sup(sched, "e16", t);
  HeartbeatEmitter hb(sched, sup, "gw.active", hb_period,
                      [&] { return !rgw.active().offline(); });
  if (supervised) {
    AliveSupervision alive_cfg;
    alive_cfg.period = hb_period * 5;  // WdgM reference cycle: 5 beats
    alive_cfg.expected = 5;
    alive_cfg.min_margin = 2;
    alive_cfg.max_margin = 2;
    EscalationPolicy esc;
    esc.failed_tolerance = 1;
    esc.reset_backoff = hb_period;
    sup.supervise_alive("gw.active", alive_cfg, esc);
    sup.set_reset_handler("gw.active", [&](const std::string&) {
      if (!rgw.failover()) return false;
      out.detect_ms.push_back(rgw.last_detection_latency().ms());
      out.frames_lost.push_back(
          static_cast<double>(rgw.last_failover_frames_lost()));
      return true;
    });
    sup.start();
    hb.start();
  }

  sim::PeriodicTask traffic(
      sched, kTrafficPeriod,
      [&] {
        ++out.sent;
        ivn::CanFrame f;
        f.id = 0x100;
        f.data = Bytes{0x01, 0x02, 0x03, 0x04};
        body.send(&sender, f);
      },
      kTrafficPeriod);
  sched.run_until(horizon + SimTime::from_s(2));
  traffic.stop();
  hb.stop();
  sup.stop();

  out.injected = plan.injected();
  out.unrecovered = plan.unrecovered();
  out.failovers = rgw.failovers();
  out.heartbeats = sup.heartbeats();
  out.sup_cycles = sup.cycles();
  out.lost = out.sent - receiver.rx;
  return out;
}

RowResult run_row(SimTime hb_period, double crash_rate_hz, std::uint64_t seed,
                  SimTime horizon) {
  const RunOutcome sup = run_once(hb_period, crash_rate_hz, seed, horizon, true);
  const RunOutcome unsup =
      run_once(hb_period, crash_rate_hz, seed, horizon, false);

  RowResult row;
  row.hb_ms = hb_period.ms();
  row.crashes = sup.injected;
  row.failovers = sup.failovers;
  row.detect_ms_mean = mean(sup.detect_ms);
  row.frames_lost_mean = mean(sup.frames_lost);
  row.unrecovered_sup = sup.unrecovered;
  row.unrecovered_unsup = unsup.unrecovered;
  row.heartbeats = sup.heartbeats;
  row.sup_cycles = sup.sup_cycles;
  const double frames = static_cast<double>(sup.heartbeats + sup.sent);
  row.overhead_pct =
      frames > 0 ? 100.0 * static_cast<double>(sup.heartbeats) / frames : 0;
  row.sent = sup.sent;
  row.lost_sup = sup.lost;
  row.lost_unsup = unsup.lost;
  return row;
}

std::string rows_to_json(std::uint64_t seed, const std::vector<RowResult>& rows) {
  std::string out = "{\"experiment\":\"e16_supervision\",\"seed\":" +
                    std::to_string(seed) + ",\"rows\":[";
  char buf[384];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"hb_ms\":%.1f,\"crashes\":%zu,\"failovers\":%llu,"
        "\"detect_ms_mean\":%.3f,\"frames_lost_mean\":%.2f,"
        "\"unrecovered_sup\":%zu,\"unrecovered_unsup\":%zu,"
        "\"heartbeats\":%llu,\"sup_cycles\":%llu,\"overhead_pct\":%.3f,"
        "\"sent\":%llu,\"lost_sup\":%llu,\"lost_unsup\":%llu}",
        i ? "," : "", r.hb_ms, r.crashes,
        static_cast<unsigned long long>(r.failovers), r.detect_ms_mean,
        r.frames_lost_mean, r.unrecovered_sup, r.unrecovered_unsup,
        static_cast<unsigned long long>(r.heartbeats),
        static_cast<unsigned long long>(r.sup_cycles), r.overhead_pct,
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.lost_sup),
        static_cast<unsigned long long>(r.lost_unsup));
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
  const std::vector<SimTime> hb_periods =
      smoke ? std::vector<SimTime>{SimTime::from_ms(1), SimTime::from_ms(5),
                                   SimTime::from_ms(20)}
            : std::vector<SimTime>{SimTime::from_ms(1), SimTime::from_ms(2),
                                   SimTime::from_ms(5), SimTime::from_ms(10),
                                   SimTime::from_ms(20)};
  const SimTime horizon = smoke ? SimTime::from_s(6) : SimTime::from_s(20);
  const double crash_rate_hz = smoke ? 0.5 : 0.4;

  std::printf("E16: health supervision & redundant gateway failover\n");
  std::printf(
      "(seed %llu, horizon %llu s, crash rate %.1f Hz, crash windows of "
      "%llu ms, traffic every %llu ms)\n\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(horizon.ns / 1'000'000'000ULL),
      crash_rate_hz,
      static_cast<unsigned long long>(kCrashDuration.ns / 1'000'000ULL),
      static_cast<unsigned long long>(kTrafficPeriod.ns / 1'000'000ULL));

  benchutil::Table table({"hb_ms", "crashes", "failovers", "detect_ms_mean",
                          "frames_lost_mean", "unrec_sup", "unrec_unsup",
                          "heartbeats", "sup_cycles", "overhead_%", "sent",
                          "lost_sup", "lost_unsup"});
  std::vector<RowResult> rows;
  std::uint64_t row_idx = 0;
  std::size_t total_unrecovered = 0;
  for (const SimTime hb : hb_periods) {
    const RowResult r = run_row(hb, crash_rate_hz, seed * 1000 + row_idx, horizon);
    ++row_idx;
    total_unrecovered += r.unrecovered_sup;
    table.add_row({benchutil::fmt("%.1f", r.hb_ms), benchutil::fmt_u(r.crashes),
                   benchutil::fmt_u(r.failovers),
                   benchutil::fmt("%.2f", r.detect_ms_mean),
                   benchutil::fmt("%.1f", r.frames_lost_mean),
                   benchutil::fmt_u(r.unrecovered_sup),
                   benchutil::fmt_u(r.unrecovered_unsup),
                   benchutil::fmt_u(r.heartbeats), benchutil::fmt_u(r.sup_cycles),
                   benchutil::fmt("%.3f", r.overhead_pct),
                   benchutil::fmt_u(r.sent), benchutil::fmt_u(r.lost_sup),
                   benchutil::fmt_u(r.lost_unsup)});
    rows.push_back(r);
  }
  table.print();
  std::printf("\n%s\n", rows_to_json(seed, rows).c_str());
  std::printf("\nsupervised unrecovered faults: %zu\n", total_unrecovered);
  return benchutil::exit_status(total_unrecovered);
}
