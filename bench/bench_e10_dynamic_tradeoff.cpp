// Experiment E10 — dynamic security/performance trade-off controller
// (paper §5 "Dynamic Trade-offs between Security, Smartness,
// Communication").
//
// A 40-minute drive cycle (parked -> highway -> urban -> intersection ->
// urban -> highway, with one mid-drive IDS threat spike) is replayed
// against three configurations: static-minimal, static-maximal, and the
// dynamic controller. We report the security index integral, total V2X
// verification compute, and cloud bandwidth — the envelope the paper argues
// only an adaptive, extensible architecture can cover.

#include <cstdio>

#include "bench_util.hpp"
#include "core/modes.hpp"

using namespace aseck;
using namespace aseck::core;

namespace {

struct Phase {
  Environment env;
  double minutes;
  double neighbors;    // vehicles in radio range (drives verify load)
  double threat = 0.0;
};

const std::vector<Phase> kDriveCycle{
    {Environment::kParked, 2, 2},
    {Environment::kHighway, 12, 8},
    {Environment::kUrban, 8, 25},
    {Environment::kIntersection, 2, 40},
    {Environment::kUrban, 6, 25, 0.9},  // IDS spike: injected traffic seen
    {Environment::kUrban, 4, 25},
    {Environment::kHighway, 6, 8},
};

struct Totals {
  double security_integral = 0;  // index-minutes
  double verify_ops = 0;         // ECDSA verifications
  double bandwidth_mb = 0;
  double min_index = 1.0;
};

Totals run_static(const SecurityMode& mode) {
  Totals t;
  for (const Phase& p : kDriveCycle) {
    const double msgs = p.neighbors * 10.0 * p.minutes * 60.0;
    t.verify_ops += msgs * mode.v2x_verify_fraction;
    t.bandwidth_mb += mode.cloud_bandwidth_kbps * p.minutes * 60.0 / 8000.0;
    t.security_integral += mode.security_index() * p.minutes;
    t.min_index = std::min(t.min_index, mode.security_index());
  }
  return t;
}

Totals run_dynamic(TradeoffController& ctl) {
  Totals t;
  double clock_s = 0;
  for (const Phase& p : kDriveCycle) {
    const SecurityMode mode =
        ctl.update(p.env, p.threat, util::SimTime::from_seconds_f(clock_s));
    const double msgs = p.neighbors * 10.0 * p.minutes * 60.0;
    t.verify_ops += msgs * mode.v2x_verify_fraction;
    t.bandwidth_mb += mode.cloud_bandwidth_kbps * p.minutes * 60.0 / 8000.0;
    t.security_integral += mode.security_index() * p.minutes;
    t.min_index = std::min(t.min_index, mode.security_index());
    clock_s += p.minutes * 60.0;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E10: dynamic security-mode controller over a drive cycle\n");
  std::printf("(40 min: parked/highway/urban/intersection, one threat spike)\n\n");

  TradeoffController ctl;
  const SecurityMode minimal = ctl.mode_for(Environment::kParked);
  const SecurityMode maximal{"always-max", 1.0, 2.0, 16, 3, 1000};

  benchutil::Table table({"configuration", "security_index_min",
                          "security_idx*min", "ecdsa_verifies",
                          "hsm_seconds", "cloud_MB"});
  struct Row {
    const char* name;
    Totals t;
  };
  TradeoffController dyn;
  const std::vector<Row> rows{
      {"static minimal (parked profile)", run_static(minimal)},
      {"static maximal (lockdown)", run_static(maximal)},
      {"dynamic controller", run_dynamic(dyn)},
  };
  for (const auto& r : rows) {
    table.add_row({r.name, benchutil::fmt("%.2f", r.t.min_index),
                   benchutil::fmt("%.1f", r.t.security_integral),
                   benchutil::fmt("%.0f", r.t.verify_ops),
                   benchutil::fmt("%.0f", r.t.verify_ops * 350e-6),
                   benchutil::fmt("%.0f", r.t.bandwidth_mb)});
  }
  table.print();

  std::printf("\nPer-phase trace of the dynamic controller:\n\n");
  benchutil::Table trace({"phase", "threat", "mode", "verify_frac",
                          "mac_bytes", "sec_index"});
  TradeoffController ctl2;
  double clock_s = 0;
  for (const Phase& p : kDriveCycle) {
    const SecurityMode& m =
        ctl2.update(p.env, p.threat, util::SimTime::from_seconds_f(clock_s));
    trace.add_row({environment_name(p.env), benchutil::fmt("%.1f", p.threat),
                   m.name, benchutil::fmt("%.1f", m.v2x_verify_fraction),
                   std::to_string(m.secoc_mac_bytes),
                   benchutil::fmt("%.2f", m.security_index())});
    clock_s += p.minutes * 60.0;
  }
  trace.print();
  std::printf("(controller transitions: %u)\n", ctl2.transitions());
  std::printf(
      "\nReading: the dynamic controller tracks the maximal profile's\n"
      "security where it matters (intersection, threat spike: index rises to\n"
      "lockdown) at a fraction of the compute/bandwidth — the static-minimal\n"
      "profile is cheap but its index floor is unacceptable in the city, and\n"
      "static-maximal burns ~%.0f%% more HSM time than the controller.\n",
      100.0 * (rows[1].t.verify_ops - rows[2].t.verify_ops) /
          rows[2].t.verify_ops);
  return 0;
}
