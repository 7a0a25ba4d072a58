// Experiment E3 — pseudonym rotation vs tracking success (paper §4.2
// "Privacy Scenario").
//
// A passive adversary with city-wide coverage records all BSMs and links
// pseudonyms by kinematic continuity. We sweep the rotation period and
// measure linkability: the fraction of actual pseudonym hand-offs the
// adversary correctly chains. Rotation alone (predictable trajectories)
// does little; adding a silent period around each rotation breaks the
// kinematic link — the trade-off architects must tune.

#include <cmath>
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "v2x/cert.hpp"
#include "v2x/net.hpp"

using namespace aseck;
using namespace aseck::v2x;

namespace {

struct Scenario {
  double linked_fraction;  // of true consecutive pseudonym pairs
  std::size_t chains;
  std::size_t observed;
};

Scenario run(int n_vehicles, std::uint64_t rotation_s, bool silent_period,
             std::uint64_t seed) {
  sim::Scheduler sched;
  crypto::Drbg rng(seed);
  auto root = CertificateAuthority::make_root(rng, "root",
                                              util::SimTime::from_s(1 << 20));
  auto pca = CertificateAuthority::make_sub(rng, "pca", root,
                                            util::SimTime::from_s(1 << 20));
  TrustStore trust;
  trust.add_root(root.certificate());
  trust.add_intermediate(pca.certificate());

  V2xMedium medium(sched, 300.0, 0.0, seed);
  TrackingAdversary adv("adversary", {0, 0}, util::SimTime::from_s(20), 80.0);
  medium.attach_monitor(&adv);

  util::Rng layout(seed ^ 0x99);
  const std::size_t pseudonyms = 4;
  std::vector<std::unique_ptr<VehicleNode>> vehicles;
  std::vector<std::vector<std::uint32_t>> truth;  // per-vehicle temp id seq
  for (int i = 0; i < n_vehicles; ++i) {
    auto batch = pca.issue_pseudonyms(rng, pseudonyms, util::SimTime::zero(),
                                      util::SimTime::from_s(1 << 20));
    std::vector<std::uint32_t> ids;
    for (const auto& c : batch.certs) {
      ids.push_back(util::load_be32(c.id().data()));
    }
    truth.push_back(ids);
    PseudonymPolicy policy;
    policy.rotation_period = util::SimTime::from_s(rotation_s);
    // Vehicles on spread-out lanes with varied headings.
    const double angle = layout.uniform_real(0, 6.28318);
    vehicles.push_back(std::make_unique<VehicleNode>(
        sched, medium, "v" + std::to_string(i),
        Position{layout.uniform_real(-5000, 5000),
                 layout.uniform_real(-5000, 5000)},
        20.0 * std::cos(angle), 20.0 * std::sin(angle), trust,
        std::move(batch), policy));
  }

  const std::uint64_t total_s = rotation_s * pseudonyms;
  for (auto& v : vehicles) v->start();
  if (!silent_period) {
    sched.run_until(util::SimTime::from_s(total_s));
  } else {
    // Silent period: vehicles stop broadcasting for 5 s around rotations.
    for (std::uint64_t t = 0; t < total_s; t += rotation_s) {
      sched.run_until(util::SimTime::from_s(t + rotation_s - 5));
      for (auto& v : vehicles) v->stop();
      sched.run_until(util::SimTime::from_s(t + rotation_s + 1));
      for (auto& v : vehicles) v->start();
    }
  }
  for (auto& v : vehicles) v->stop();
  sched.run();

  // Score: which true consecutive (id_k -> id_{k+1}) pairs appear
  // consecutively in some adversary chain?
  const auto chains = adv.link_chains();
  std::set<std::pair<std::uint32_t, std::uint32_t>> linked;
  for (const auto& chain : chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      linked.insert({chain[i], chain[i + 1]});
    }
  }
  std::size_t total_pairs = 0, hit = 0;
  for (const auto& ids : truth) {
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      ++total_pairs;
      if (linked.count({ids[i], ids[i + 1]})) ++hit;
    }
  }
  Scenario s;
  s.linked_fraction =
      total_pairs ? static_cast<double>(hit) / static_cast<double>(total_pairs) : 0;
  s.chains = chains.size();
  s.observed = adv.observed();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E3: pseudonym rotation vs adversary tracking success\n");
  std::printf("(10 vehicles, 4 pseudonyms each, city-wide passive adversary)\n\n");

  benchutil::Table table({"rotation_s", "silent_period", "linked_%",
                          "adversary_chains", "bsm_observed"});
  for (const std::uint64_t rot : {10u, 30u, 60u}) {
    for (const bool silent : {false, true}) {
      const Scenario s = run(10, rot, silent, 1000 + rot);
      table.add_row({std::to_string(rot), silent ? "5s" : "none",
                     benchutil::fmt("%.0f", s.linked_fraction * 100),
                     benchutil::fmt_u(s.chains), benchutil::fmt_u(s.observed)});
    }
  }
  table.print();
  std::printf(
      "\nReading: with continuous broadcasting, kinematic linking defeats\n"
      "rotation at any period (~100%% linked). A 5 s silent period around\n"
      "each rotation collapses linkability, at the cost of a safety-message\n"
      "gap — the authentication-vs-anonymity conundrum of Section 4.2.\n");
  return 0;
}
