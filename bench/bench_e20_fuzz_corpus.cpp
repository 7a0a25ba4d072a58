// Experiment E20 — deterministic fuzzing campaigns + replayable attack
// corpus scored against the online defenses (paper §5/§7: the extensibility
// surfaces — diagnostics, OTA metadata, service-oriented protocols — are
// exactly the parsers an attacker reaches first).
//
// Phase A runs a fixed-seed coverage-guided campaign per protocol target
// TWICE and diffs the full result JSON: any mismatch breaks the
// reproducibility contract (util::Rng::for_stream per iteration) and counts
// as a violation, as does any surviving oracle finding on the hardened
// parsers.
//
// Phase B replays the frozen attack corpus (attacks::ScenarioCorpus) through
// a CAN bus watched by a trained IDS ensemble and bridged by a
// SecurityGateway with a whitelist routing policy, reporting per-attack-class
// detection and block rates. The replay runs twice; differing TraceBus
// timeline digests count as a violation.
//
// Flags: --seed U  --iters N (N >= 1)  --smoke (small preset)
// Exit code = number of violations (0 = fully deterministic, no findings).

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "attacks/corpus.hpp"
#include "bench_util.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/targets.hpp"
#include "gateway/gateway.hpp"
#include "ids/detectors.hpp"
#include "ivn/can.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/rng.hpp"

using namespace aseck;
using util::Bytes;

namespace {

// --- Phase A: fixed-seed campaigns, double-run determinism ------------------

struct PhaseAResult {
  std::size_t findings = 0;
  std::size_t mismatches = 0;
};

PhaseAResult run_campaigns(std::uint64_t seed, std::uint64_t iterations) {
  std::printf("Phase A: fixed-seed campaigns (seed=%" PRIu64
              ", iters=%" PRIu64 ", run twice)\n\n",
              seed, iterations);
  benchutil::Table table({"target", "execs", "accepted", "corpus", "edges",
                          "findings", "coverage_digest", "deterministic"});
  PhaseAResult out;
  fuzz::Fuzzer::Config cfg;
  cfg.seed = seed;
  cfg.iterations = iterations;
  for (const fuzz::FuzzTarget& t : fuzz::builtin_targets()) {
    const fuzz::CampaignResult r1 = fuzz::Fuzzer(cfg).run(t);
    const fuzz::CampaignResult r2 = fuzz::Fuzzer(cfg).run(t);
    const bool same = r1.to_json() == r2.to_json();
    if (!same) ++out.mismatches;
    out.findings += r1.findings.size();
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, r1.coverage_digest);
    table.add_row({t.name, benchutil::fmt_u(r1.execs),
                   benchutil::fmt_u(r1.accepted),
                   benchutil::fmt_u(r1.corpus_size),
                   benchutil::fmt_u(r1.edges),
                   benchutil::fmt_u(r1.findings.size()), digest,
                   same ? "yes" : "NO"});
    for (const fuzz::Finding& f : r1.findings) {
      std::printf("  FINDING [%s] iter=%" PRIu64 " %s minimized=%s\n",
                  t.name.c_str(), f.iteration, f.violation.c_str(),
                  util::to_hex(f.minimized).c_str());
    }
  }
  table.print();
  std::printf("\n");
  return out;
}

// --- Phase B: corpus replay vs IDS + gateway --------------------------------

// Benign periodic streams the defenses are trained/configured for.
struct Stream {
  std::uint32_t id;
  std::uint64_t period_ms;
  std::uint8_t mode_byte;
};
const std::vector<Stream> kStreams{
    {0x0F0, 10, 0x10}, {0x110, 20, 0x20}, {0x300, 100, 0x02}};
constexpr std::uint32_t kDiagId = 0x7E0;  // whitelisted diagnostic carrier

ivn::CanFrame benign_frame(const Stream& s, util::Rng& rng) {
  ivn::CanFrame f;
  f.id = s.id;
  f.data = Bytes(8, 0);
  f.data[0] = s.mode_byte;
  f.data[1] = static_cast<std::uint8_t>(40 + rng.uniform(20));
  return f;
}

/// Observer on the attack-facing bus: labels frames by carrier id and feeds
/// the IDS ensemble.
class IdsTap : public ivn::CanNode {
 public:
  IdsTap(ids::IdsEnsemble& ens, std::set<std::uint32_t> benign_ids)
      : ivn::CanNode("ids-tap"), ens_(ens), benign_ids_(std::move(benign_ids)) {}

  void on_frame(const ivn::CanFrame& f, sim::SimTime at) override {
    const bool is_attack = benign_ids_.count(f.id) == 0;
    const auto v = ens_.observe_labeled(f, at, is_attack);
    if (is_attack) {
      ++attack_frames_;
      if (v.alert) ++attack_alerts_;
    }
  }

  std::uint64_t attack_frames() const { return attack_frames_; }
  std::uint64_t attack_alerts() const { return attack_alerts_; }

 private:
  ids::IdsEnsemble& ens_;
  std::set<std::uint32_t> benign_ids_;
  std::uint64_t attack_frames_ = 0;
  std::uint64_t attack_alerts_ = 0;
};

/// Counts non-benign frames that made it through the gateway.
class ForwardTap : public ivn::CanNode {
 public:
  explicit ForwardTap(std::set<std::uint32_t> benign_ids)
      : ivn::CanNode("fwd-tap"), benign_ids_(std::move(benign_ids)) {}
  void on_frame(const ivn::CanFrame& f, sim::SimTime) override {
    if (benign_ids_.count(f.id) == 0) ++attack_forwarded_;
  }
  std::uint64_t attack_forwarded() const { return attack_forwarded_; }

 private:
  std::set<std::uint32_t> benign_ids_;
  std::uint64_t attack_forwarded_ = 0;
};

ids::IdsEnsemble trained_ensemble(std::uint64_t seed,
                                  const sim::Telemetry& tel) {
  util::Rng rng(seed);
  ids::IdsEnsemble ens = ids::make_default_ensemble(tel);
  std::vector<std::pair<sim::SimTime, ivn::CanFrame>> train;
  for (const Stream& s : kStreams) {
    std::uint64_t t_us = rng.uniform(1000);
    while (t_us < 60e6) {
      train.emplace_back(sim::SimTime::from_us(t_us), benign_frame(s, rng));
      t_us += s.period_ms * 1000;
    }
  }
  std::sort(train.begin(), train.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [at, f] : train) ens.train(f, at);
  ens.finish_training();
  return ens;
}

struct ClassResult {
  std::size_t entries = 0;
  std::uint64_t attack_frames = 0;
  double ids_detection = 0;  // alerted fraction of attack frames on diag bus
  double gw_blocked = 0;     // fraction NOT forwarded to the body domain
  std::uint64_t digest = 0;  // TraceBus timeline digest of the replay
};

ClassResult replay_class(const attacks::ScenarioCorpus& corpus,
                         attacks::AttackClass cls, std::uint64_t seed) {
  sim::Scheduler sched;
  sim::Telemetry tel;
  ivn::CanBus diag(sched, "diag", 500000, 0, tel);
  ivn::CanBus body(sched, "body", 500000, 0, tel);

  // Whitelist gateway: benign streams are safety-critical routes; the
  // diagnostic carrier is routed but rate-limited. Everything else has no
  // route and is blocked.
  gateway::SecurityGateway gw(sched, "gw0");
  gw.add_domain("diag", &diag);
  gw.add_domain("body", &body);
  for (const Stream& s : kStreams) gw.add_route(s.id, "diag", "body", true);
  gw.add_route(kDiagId, "diag", "body");
  gateway::FirewallRule dlc_rule;
  dlc_rule.from_domain = "diag";
  dlc_rule.id_min = dlc_rule.id_max = kDiagId;
  dlc_rule.allow = true;
  dlc_rule.max_dlc = 8;
  gw.add_rule(dlc_rule);
  gw.set_rate_limit("diag", kDiagId, {/*frames_per_sec=*/200, /*burst=*/4});

  std::set<std::uint32_t> benign_ids;
  for (const Stream& s : kStreams) benign_ids.insert(s.id);

  ids::IdsEnsemble ens = trained_ensemble(seed, tel);
  IdsTap ids_tap(ens, benign_ids);
  ForwardTap fwd_tap(benign_ids);
  diag.attach(&ids_tap);
  body.attach(&fwd_tap);

  // Benign background traffic on the diag bus for the replay horizon.
  util::Rng rng(seed ^ 0xBE9197);
  attacks::CorpusReplayer rep(sched, diag, "corpus", tel);
  sim::SimTime end = sim::SimTime::from_ms(50);
  ClassResult r;
  for (const attacks::ScenarioEntry* e : corpus.by_class(cls)) {
    ++r.entries;
    end = rep.schedule(*e, end) + sim::SimTime::from_ms(5);
  }
  const std::uint64_t horizon_us = end.ns / 1000 + 20'000;
  class BenignSender : public ivn::CanNode {
   public:
    using ivn::CanNode::CanNode;
    void on_frame(const ivn::CanFrame&, sim::SimTime) override {}
  } sender("benign");
  diag.attach(&sender);
  for (const Stream& s : kStreams) {
    for (std::uint64_t t_us = 1000 + s.id; t_us < horizon_us;
         t_us += s.period_ms * 1000) {
      const ivn::CanFrame f = benign_frame(s, rng);
      sched.schedule_at(sim::SimTime::from_us(t_us),
                        [&diag, &sender, f] { diag.send(&sender, f); });
    }
  }

  sched.run_until(sim::SimTime::from_us(horizon_us));
  r.attack_frames = ids_tap.attack_frames();
  r.ids_detection =
      r.attack_frames == 0
          ? 0
          : static_cast<double>(ids_tap.attack_alerts()) /
                static_cast<double>(r.attack_frames);
  r.gw_blocked = r.attack_frames == 0
                     ? 0
                     : 1.0 - static_cast<double>(fwd_tap.attack_forwarded()) /
                                 static_cast<double>(r.attack_frames);
  r.digest = attacks::timeline_digest(*tel.bus);
  return r;
}

std::size_t run_replay(std::uint64_t seed) {
  std::printf("Phase B: corpus replay vs IDS ensemble + whitelist gateway\n");
  std::printf("(benign streams 0x0F0/0x110/0x300 routed, diag 0x7E0 "
              "rate-limited, replay run twice)\n\n");
  const attacks::ScenarioCorpus corpus = attacks::ScenarioCorpus::builtin();
  benchutil::Table table({"attack_class", "entries", "attack_frames",
                          "ids_detection", "gw_blocked", "deterministic"});
  std::size_t violations = 0;
  std::size_t classes = 0;
  for (attacks::AttackClass cls : corpus.classes()) {
    const ClassResult a = replay_class(corpus, cls, seed);
    const ClassResult b = replay_class(corpus, cls, seed);
    const bool same = a.digest == b.digest &&
                      a.attack_frames == b.attack_frames;
    if (!same) ++violations;
    ++classes;
    table.add_row({attacks::attack_class_name(cls),
                   benchutil::fmt_u(a.entries),
                   benchutil::fmt_u(a.attack_frames),
                   benchutil::fmt("%.2f", a.ids_detection),
                   benchutil::fmt("%.2f", a.gw_blocked),
                   same ? "yes" : "NO"});
  }
  table.print();
  std::printf("\n");
  if (classes < 5) {
    std::printf("VIOLATION: only %zu attack classes scored (need >= 5)\n",
                classes);
    ++violations;
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::uint64_t iters = 4000;
  bool& smoke = benchutil::smoke;
  const std::initializer_list<benchutil::Flag> flags = {
      {"--seed", &seed}, {"--iters", &iters}, {"--smoke", &smoke}};
  if (const int rc = benchutil::parse_args(argc, argv, flags)) return rc;
  if (iters == 0) return benchutil::usage_error(argv[0], flags);
  if (smoke) iters = 500;

  std::printf("E20: deterministic fuzzing + replayable attack corpus\n\n");
  const PhaseAResult a = run_campaigns(seed, iters);
  std::size_t violations = a.findings + a.mismatches;
  if (a.mismatches > 0) {
    std::printf("VIOLATION: %zu campaign(s) not bit-reproducible\n",
                a.mismatches);
  }
  if (a.findings > 0) {
    std::printf("VIOLATION: %zu surviving oracle finding(s)\n", a.findings);
  }
  violations += run_replay(seed);

  std::printf("violations=%zu\n", violations);
  return benchutil::exit_status(violations);
}
